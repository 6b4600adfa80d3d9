package serve

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bgpintent/internal/anomaly"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/stream"
)

// anomalyWorld wires a real engine (fed by hand) into a test server.
func anomalyWorld(t *testing.T) (*Server, *anomaly.Engine) {
	t.Helper()
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	eng := anomaly.NewEngine(anomaly.Options{BucketSpan: 10 * time.Minute, History: 16, Logf: t.Logf})
	s.SetAnomalies(engineSource{eng})
	return s, eng
}

// engineSource adapts a bare Engine (no watcher goroutine needed in
// HTTP tests) to AnomalySource.
type engineSource struct{ eng *anomaly.Engine }

func (a engineSource) Query(q anomaly.Query) anomaly.Report { return a.eng.Query(q) }
func (a engineSource) Health() anomaly.WatchHealth {
	return anomaly.WatchHealth{HealthInfo: a.eng.Health()}
}
func (a engineSource) Stamp() uint64 { return a.eng.Stamp() }

// feedSpike drives the engine through a baseline and one burst so at
// least one spike finding exists.
func feedSpike(t testing.TB, eng *anomaly.Engine) {
	t.Helper()
	c := bgp.NewCommunity(100, 666)
	eng.SetSemantics(&staticSem{c: c, cat: dict.CatAction})
	start := time.Unix(1_600_000_000, 0).UTC().Truncate(time.Hour)
	path := []uint32{10, 20, 30}
	feed := func(b, n int) {
		for i := 0; i < n; i++ {
			eng.Process(stream.Update{
				Time:  start.Add(time.Duration(b)*10*time.Minute + time.Duration(i)*time.Second),
				VP:    10,
				Path:  path,
				Comms: []bgp.Community{c},
			})
		}
	}
	for b := 0; b < 10; b++ {
		feed(b, 5)
	}
	feed(10, 200)
	feed(11, 5)
	eng.CloseUpTo(start.Add(13 * 10 * time.Minute))
}

// staticSem is a one-community InferenceSource stub; the engine only
// calls Category.
type staticSem struct {
	core.NoLargeInferences
	c   bgp.Community
	cat dict.Category
}

func (s *staticSem) Category(c bgp.Community) dict.Category {
	if c == s.c {
		return s.cat
	}
	return dict.CatUnknown
}

func (s *staticSem) Verdict(c bgp.Community) core.Verdict {
	return core.Verdict{Comm: c, Category: s.Category(c)}
}
func (s *staticSem) Observed() int                            { return 1 }
func (s *staticSem) Counts() (int, int)                       { return 1, 0 }
func (s *staticSem) ExcludedCount() int                       { return 0 }
func (s *staticSem) ClusterCount() int                        { return 0 }
func (s *staticSem) ClusterSummaryAt(int) core.ClusterSummary { panic("unused") }
func (s *staticSem) EachLabeled(fn func(bgp.Community, dict.Category) bool) {
	fn(s.c, s.cat)
}
func (s *staticSem) Options() core.Options         { return core.Options{} }
func (s *staticSem) Materialize() *core.Inferences { panic("unused") }

func TestAnomaliesEndpointDisabled(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))
	var resp errorResponse
	if code := do(t, s, "GET", "/v1/anomalies", "", &resp); code != 404 {
		t.Fatalf("status %d without SetAnomalies, want 404", code)
	}
	if !strings.Contains(resp.Error, "not enabled") {
		t.Fatalf("error %q", resp.Error)
	}
}

func TestAnomaliesEndpoint(t *testing.T) {
	s, eng := anomalyWorld(t)
	feedSpike(t, eng)

	var resp anomaliesResponse
	if code := do(t, s, "GET", "/v1/anomalies", "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Generation != 1 || resp.SemanticsGeneration != 1 || resp.Stamp == 0 {
		t.Fatalf("provenance wrong: %+v", resp)
	}
	if len(resp.Findings) < 2 {
		t.Fatalf("want spike onset+withdrawal findings, got %+v", resp.Findings)
	}
	f := resp.Findings[0]
	if f.Detector != "spike" || f.Kind != "spike-onset" || f.Community != "100:666" ||
		f.Category != "action" || f.Generation != 1 || f.SpanSeconds != 600 {
		t.Fatalf("first finding %+v", f)
	}
	if resp.LastBucket == "" || resp.Buckets == 0 {
		t.Fatalf("bucket provenance missing: %+v", resp)
	}

	// Filters narrow, bad parameters reject.
	var one anomaliesResponse
	if code := do(t, s, "GET", "/v1/anomalies?detector=spike&limit=1", "", &one); code != 200 {
		t.Fatalf("filtered status %d", code)
	}
	if len(one.Findings) != 1 || one.Findings[0].Detector != "spike" {
		t.Fatalf("filtered findings %+v", one.Findings)
	}
	if code := do(t, s, "GET", "/v1/anomalies?detector=churn", "", &one); code != 200 || len(one.Findings) != 0 {
		t.Fatalf("churn filter: code %d findings %+v", code, one.Findings)
	}
	for _, bad := range []string{"?window=banana", "?since=banana", "?limit=-3", "?limit=x"} {
		if code := do(t, s, "GET", "/v1/anomalies"+bad, "", nil); code != 400 {
			t.Errorf("GET /v1/anomalies%s: status %d, want 400", bad, code)
		}
	}
}

func TestAnomaliesResponseCaching(t *testing.T) {
	s, eng := anomalyWorld(t)
	feedSpike(t, eng)

	hits0 := int64(s.metrics.cacheHits.Value())
	var a, b anomaliesResponse
	do(t, s, "GET", "/v1/anomalies?detector=spike", "", &a)
	do(t, s, "GET", "/v1/anomalies?detector=spike", "", &b)
	if hits := int64(s.metrics.cacheHits.Value()); hits != hits0+1 {
		t.Fatalf("second identical query: cache hits %d, want %d", hits, hits0+1)
	}
	if a.Stamp != b.Stamp {
		t.Fatalf("cached body diverged: %d vs %d", a.Stamp, b.Stamp)
	}

	// Any engine change (here: a semantics swap) invalidates.
	eng.SetSemantics(&staticSem{c: bgp.NewCommunity(100, 666), cat: dict.CatAction})
	var c anomaliesResponse
	do(t, s, "GET", "/v1/anomalies?detector=spike", "", &c)
	if c.SemanticsGeneration != 2 {
		t.Fatalf("post-swap response stale: %+v", c)
	}
}

func TestHealthAnomalyBlock(t *testing.T) {
	s, eng := anomalyWorld(t)
	feedSpike(t, eng)

	var resp struct {
		Anomalies *anomalyHealthJSON `json:"anomalies"`
	}
	if code := do(t, s, "GET", "/v1/health", "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	h := resp.Anomalies
	if h == nil {
		t.Fatal("health lacks anomalies block")
	}
	if len(h.Detectors) != 3 || h.Updates == 0 || h.Buckets == 0 || h.Findings == 0 {
		t.Fatalf("anomaly health %+v", h)
	}
	if h.Generation != 1 || h.LastBucket == "" || h.LagSeconds <= 0 {
		t.Fatalf("anomaly provenance %+v", h)
	}
}

func TestAnomalyPrometheusMetrics(t *testing.T) {
	s, eng := anomalyWorld(t)
	feedSpike(t, eng)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := rec.Body.String()
	for _, want := range []string{
		"intentd_anomaly_findings_total 2",
		`intentd_anomaly_detector_findings_total{detector="spike"} 2`,
		`intentd_anomaly_detector_findings_total{detector="churn"} 0`,
		`intentd_anomaly_detector_findings_total{detector="disappearance"} 0`,
		"intentd_anomaly_updates_total 255",
		"intentd_anomaly_buckets_total 13",
		"intentd_anomaly_dropped_total 0",
		"intentd_anomaly_generation 1",
		"intentd_anomaly_lag_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition misses %q", want)
		}
	}
}
