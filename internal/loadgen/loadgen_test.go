package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// TestHistBucketRoundTrip: bucketLow(bucketIdx(v)) <= v and within the
// layout's relative-error bound for every magnitude.
func TestHistBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 63, 64, 65, 127, 128, 1000, 4096, 1e6, 1e9, 1e12}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int63n(int64(1)<<uint(10+rng.Intn(40))))
	}
	for _, v := range values {
		idx := bucketIdx(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		low := bucketLow(idx)
		if low > v {
			t.Fatalf("bucketLow(%d) = %d exceeds value %d", idx, low, v)
		}
		// Sub-bucket width is 2^(pow-histSubBits): relative error < 1/64.
		if v >= histSub && float64(v-low)/float64(v) > 1.0/float64(histSub) {
			t.Fatalf("value %d landed in bucket starting %d (err %.4f)", v, low, float64(v-low)/float64(v))
		}
		// Monotonic: the next bucket starts above this value's bucket.
		if idx+1 < histBuckets && bucketLow(idx+1) <= low {
			t.Fatalf("bucket %d (low %d) not below bucket %d (low %d)", idx, low, idx+1, bucketLow(idx+1))
		}
	}
}

// TestHistQuantiles: quantiles over a known uniform distribution land
// within the layout's error bound, and Merge equals bulk recording.
func TestHistQuantiles(t *testing.T) {
	h := NewHist()
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	checks := []struct {
		q    float64
		want int64
	}{{0.50, 50000}, {0.90, 90000}, {0.99, 99000}, {0.999, 99900}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if ratio := float64(got) / float64(c.want); ratio < 0.98 || ratio > 1.02 {
			t.Errorf("p%g = %d, want ~%d", c.q*100, got, c.want)
		}
	}
	if h.Max() != 100000 || h.Min() != 1 || h.Count() != 100000 {
		t.Fatalf("min/max/count = %d/%d/%d", h.Min(), h.Max(), h.Count())
	}

	a, b := NewHist(), NewHist()
	for v := int64(1); v <= 100000; v++ {
		if v%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(b)
	for _, c := range checks {
		if a.Quantile(c.q) != h.Quantile(c.q) {
			t.Fatalf("merged p%g = %d, bulk %d", c.q*100, a.Quantile(c.q), h.Quantile(c.q))
		}
	}
}

// TestRunClosedLoop drives a local stub server and checks the report
// plumbing end to end, including schema validation and RSS sampling.
func TestRunClosedLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	cfg := Config{
		BaseURL:        ts.URL,
		Paths:          []string{"/v1/community/100:10", "/v1/community/100:20", "/v1/stats"},
		Mode:           ModeClosed,
		Duration:       300 * time.Millisecond,
		Concurrency:    4,
		Seed:           1,
		WarmupFraction: -1,
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 || res.QPS <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Latency.Count() != res.Requests {
		t.Fatalf("histogram count %d != requests %d", res.Latency.Count(), res.Requests)
	}

	rep := BuildReport(cfg, res, os.Getpid())
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v\n%+v", err, rep)
	}
	if rep.RSSBytes == 0 {
		if _, err := os.Stat("/proc/self/status"); err == nil {
			t.Fatal("RSS sampling returned 0 on a /proc platform")
		}
	}

	// Baseline comparison: identical run passes, a 10x-p99 run fails.
	if err := CompareBaseline(rep, rep, 0.25); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	slow := rep
	slow.P99Micros *= 10
	if err := CompareBaseline(rep, slow, 0.25); err == nil {
		t.Fatal("10x p99 regression passed the baseline gate")
	}
}

// TestRunOpenLoop checks the paced mode completes and respects the
// schedule-based latency accounting.
func TestRunOpenLoop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	res, err := Run(context.Background(), Config{
		BaseURL:        ts.URL,
		Paths:          []string{"/x"},
		Mode:           ModeOpen,
		Duration:       300 * time.Millisecond,
		Concurrency:    4,
		Rate:           500,
		Seed:           1,
		WarmupFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("result %+v", res)
	}
	// ~150 arrivals scheduled; allow wide slack for CI jitter but catch
	// a runaway closed loop (which would do thousands).
	if res.Requests > 400 {
		t.Fatalf("open loop issued %d requests at rate 500 over 300ms — not paced", res.Requests)
	}

	// Far above what 4 workers can serve, every due arrival must still
	// be accounted for: sent (Requests, which counts errors too) or
	// dropped. Only the few in flight when the run ends may go uncounted.
	const rate, d = 100000, 300 * time.Millisecond
	res, err = Run(context.Background(), Config{
		BaseURL:        ts.URL,
		Paths:          []string{"/x"},
		Mode:           ModeOpen,
		Duration:       d,
		Concurrency:    4,
		Rate:           rate,
		Seed:           1,
		WarmupFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	due := rate * d.Seconds()
	if got := float64(res.Requests + res.DroppedSend); got < 0.95*due {
		t.Fatalf("rate %d/s over %v: %d sent + %d dropped accounts for %.0f%% of %.0f due arrivals",
			rate, d, res.Requests, res.DroppedSend, 100*got/due, due)
	}
}

// TestReportValidateRejectsGarbage: the schema gate actually gates.
func TestReportValidateRejectsGarbage(t *testing.T) {
	good := Report{
		GoVersion: "go1.22", Mode: ModeClosed, DurationSeconds: 1,
		Requests: 100, QPS: 100, P50Micros: 10, P99Micros: 20, P999Micros: 30,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	bad := []Report{
		{},
		{GoVersion: "go1.22", Mode: "sideways", DurationSeconds: 1, Requests: 1, QPS: 1, P50Micros: 1, P99Micros: 2, P999Micros: 3},
		{GoVersion: "go1.22", Mode: ModeClosed, DurationSeconds: 1, Requests: 0, QPS: 1, P50Micros: 1, P99Micros: 2, P999Micros: 3},
		{GoVersion: "go1.22", Mode: ModeClosed, DurationSeconds: 1, Requests: 5, Errors: 5, QPS: 1, P50Micros: 1, P99Micros: 2, P999Micros: 3},
		{GoVersion: "go1.22", Mode: ModeClosed, DurationSeconds: 1, Requests: 1, QPS: 1, P50Micros: 5, P99Micros: 2, P999Micros: 3},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d accepted: %+v", i, r)
		}
	}
}
