package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpintent"
)

// testWorld is the shared fixture: one synthetic corpus classified
// under two opposite ratio thresholds, so the two results disagree on
// at least one community — the probe the consistency tests key on.
type testWorld struct {
	corpus *bgpintent.Corpus
	resA   *bgpintent.Result // threshold 1: every mixed cluster information
	resB   *bgpintent.Result // threshold ~inf: every mixed cluster action
	probe  bgpintent.Community
	catA   bgpintent.Category
	catB   bgpintent.Category

	excluded   bgpintent.Community // an observed-but-excluded community
	unobserved bgpintent.Community
}

var (
	worldOnce sync.Once
	world     *testWorld
)

func getWorld(t *testing.T) *testWorld {
	t.Helper()
	worldOnce.Do(func() {
		c, err := bgpintent.NewSyntheticCorpus(bgpintent.CorpusOptions{Small: true, Seed: 7})
		if err != nil {
			panic(err)
		}
		resA, err := c.ClassifyContext(context.Background(), bgpintent.Params{MinGap: 140, RatioThreshold: 1})
		if err != nil {
			panic(err)
		}
		resB, err := c.ClassifyContext(context.Background(), bgpintent.Params{MinGap: 140, RatioThreshold: 1e9})
		if err != nil {
			panic(err)
		}
		w := &testWorld{corpus: c, resA: resA, resB: resB}
		for _, lc := range w.resA.Labeled() {
			if w.resB.Category(lc.Community) != lc.Category {
				w.probe = lc.Community
				w.catA = lc.Category
				w.catB = w.resB.Category(lc.Community)
				break
			}
		}
		for _, comm := range c.Communities() {
			if _, ok := w.resA.Excluded(comm); ok {
				w.excluded = comm
				break
			}
		}
		// Find a community absent from the corpus.
		seen := make(map[bgpintent.Community]bool)
		for _, comm := range c.Communities() {
			seen[comm] = true
		}
		for v := uint16(1); ; v++ {
			if cand := bgpintent.Comm(4242, v); !seen[cand] {
				w.unobserved = cand
				break
			}
		}
		world = w
	})
	if world.probe == (bgpintent.Community{}) {
		t.Fatal("no probe community disagrees between thresholds; synthetic corpus has no mixed clusters?")
	}
	if world.excluded == (bgpintent.Community{}) {
		t.Fatal("no excluded community in synthetic corpus")
	}
	return world
}

// staticBuilder always serves the given result.
func staticBuilder(w *testWorld, res *bgpintent.Result, source string) Builder {
	return func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		return res, w.corpus.SnapshotInfo("synthetic-test"), source, nil
	}
}

func newTestServer(t *testing.T, b Builder) *Server {
	t.Helper()
	s, err := New(context.Background(), b, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs an in-process request and decodes the JSON body into out.
func do(t *testing.T, s *Server, method, path, body string, out any) int {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestCommunityEndpoint(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	var resp communityResponse
	if code := do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Observed || resp.Category != w.catA.String() || resp.Generation != 1 {
		t.Fatalf("probe response %+v, want observed %s gen 1", resp, w.catA)
	}
	if resp.Cluster == nil || resp.Cluster.Lo > uint32(w.probe.Value) || resp.Cluster.Hi < uint32(w.probe.Value) {
		t.Fatalf("probe cluster %+v does not span %v", resp.Cluster, w.probe)
	}
	if resp.OnPath+resp.OffPath == 0 {
		t.Fatalf("probe has no evidence: %+v", resp)
	}

	if code := do(t, s, "GET", "/v1/community/"+w.excluded.String(), "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !resp.Observed || resp.Category != "unknown" || resp.Reason == "" || resp.Reason == "unobserved" {
		t.Fatalf("excluded response %+v, want a concrete exclude_reason", resp)
	}

	if code := do(t, s, "GET", "/v1/community/"+w.unobserved.String(), "", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Observed || resp.Reason != "unobserved" {
		t.Fatalf("unobserved response %+v", resp)
	}

	var errResp errorResponse
	if code := do(t, s, "GET", "/v1/community/nonsense", "", &errResp); code != 400 {
		t.Fatalf("bad community: status %d", code)
	}
	if code := do(t, s, "GET", "/v1/community/99999999:1", "", &errResp); code != 400 {
		t.Fatalf("oversized ASN: status %d", code)
	}
}

func TestAnnotateEndpoint(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	body := fmt.Sprintf(`{"communities": [%q, %q]}`, w.probe, w.unobserved)
	var resp annotateResponse
	if code := do(t, s, "POST", "/v1/annotate", body, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Annotations) != 2 {
		t.Fatalf("got %d annotations", len(resp.Annotations))
	}
	if resp.Annotations[0].Category != w.catA.String() || resp.Annotations[1].Observed {
		t.Fatalf("annotations %+v", resp.Annotations)
	}

	// Tuple form: α on / not on the supplied path.
	alpha := w.probe.ASN
	body = fmt.Sprintf(`{"tuples": [
		{"path": "65000 %d 65001", "communities": %q},
		{"path": "65000 65001", "communities": %q}
	]}`, alpha, w.probe, w.probe)
	if code := do(t, s, "POST", "/v1/annotate", body, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Tuples) != 2 {
		t.Fatalf("got %d tuples", len(resp.Tuples))
	}
	on := resp.Tuples[0].Annotations[0].OnThisPath
	off := resp.Tuples[1].Annotations[0].OnThisPath
	if on == nil || !*on || off == nil || *off {
		t.Fatalf("on_this_path: %v / %v, want true / false", on, off)
	}

	for _, bad := range []string{
		``, `{}`, `{"communities": ["nope"]}`, `not json`,
		`{"tuples": [{"path": "x y", "communities": "1:2"}]}`,
	} {
		if code := do(t, s, "POST", "/v1/annotate", bad, nil); code != 400 {
			t.Errorf("body %q: status %d, want 400", bad, code)
		}
	}
}

func TestASAndStatsEndpoints(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	var asResp asResponse
	if code := do(t, s, "GET", fmt.Sprintf("/v1/as/%d", w.probe.ASN), "", &asResp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(asResp.Clusters) == 0 {
		t.Fatalf("no clusters for α %d", w.probe.ASN)
	}
	found := false
	for _, cl := range asResp.Clusters {
		if cl.Lo <= uint32(w.probe.Value) && uint32(w.probe.Value) <= cl.Hi {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cluster spans the probe: %+v", asResp.Clusters)
	}
	// Unknown α: empty cluster list, not an error.
	if code := do(t, s, "GET", "/v1/as/4242", "", &asResp); code != 200 || len(asResp.Clusters) != 0 {
		t.Fatalf("unknown α: status %d clusters %v", code, asResp.Clusters)
	}
	if code := do(t, s, "GET", "/v1/as/70000", "", nil); code != 400 {
		t.Fatalf("oversized α: status %d", code)
	}

	var stats statsResponse
	if code := do(t, s, "GET", "/v1/stats", "", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	action, info := w.resA.Counts()
	if stats.Action != action || stats.Information != info || stats.Excluded != w.resA.ExcludedCount() {
		t.Fatalf("stats %+v, want action=%d information=%d excluded=%d", stats, action, info, w.resA.ExcludedCount())
	}
	if stats.Tuples != w.corpus.Tuples() || stats.Paths != w.corpus.Paths() {
		t.Fatalf("stats corpus counters %+v", stats)
	}
	if stats.Source != "static" || stats.Generation != 1 {
		t.Fatalf("stats provenance %+v", stats)
	}
}

func TestMetricsAndReload(t *testing.T) {
	w := getWorld(t)
	n := 0
	failing := false
	builder := func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		if failing {
			return nil, bgpintent.SnapshotInfo{}, "", fmt.Errorf("synthetic build failure")
		}
		n++
		res := w.resA
		if n%2 == 0 {
			res = w.resB
		}
		return res, w.corpus.SnapshotInfo("synthetic-test"), fmt.Sprintf("build-%d", n), nil
	}
	s := newTestServer(t, builder)

	var comm communityResponse
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &comm)
	if comm.Generation != 1 || comm.Category != w.catA.String() {
		t.Fatalf("gen 1 response %+v", comm)
	}

	var rel reloadResponse
	if code := do(t, s, "POST", "/v1/admin/reload", "", &rel); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	if rel.Generation != 2 || rel.Source != "build-2" {
		t.Fatalf("reload response %+v", rel)
	}
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &comm)
	if comm.Generation != 2 || comm.Category != w.catB.String() {
		t.Fatalf("gen 2 response %+v, want %s", comm, w.catB)
	}

	// A failing reload keeps the old snapshot serving.
	failing = true
	if code := do(t, s, "POST", "/v1/admin/reload", "", nil); code != 500 {
		t.Fatalf("failing reload status %d", code)
	}
	do(t, s, "GET", "/v1/community/"+w.probe.String(), "", &comm)
	if comm.Generation != 2 || comm.Category != w.catB.String() {
		t.Fatalf("post-failure response %+v, want gen 2 intact", comm)
	}

	var m MetricsSnapshot
	if code := do(t, s, "GET", "/v1/metrics", "", &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m.Generation != 2 || m.Reloads != 1 || m.ReloadErrors != 1 {
		t.Fatalf("metrics %+v, want gen 2, 1 reload, 1 reload error", m)
	}
	if m.Endpoints["community"].Requests != 3 || m.Endpoints["community"].Errors != 0 {
		t.Fatalf("community endpoint metrics %+v", m.Endpoints["community"])
	}
	if m.Endpoints["reload"].Requests != 2 || m.Endpoints["reload"].Errors != 1 {
		t.Fatalf("reload endpoint metrics %+v", m.Endpoints["reload"])
	}

	// The same counters expose at GET /metrics in Prometheus text form.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE intentd_http_requests_total counter",
		`intentd_http_requests_total{endpoint="community"} 3`,
		`intentd_http_requests_total{endpoint="reload"} 2`,
		`intentd_http_request_errors_total{endpoint="reload"} 1`,
		"intentd_reloads_total 1",
		"intentd_reload_errors_total 1",
		"intentd_snapshot_generation 2",
		"intentd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics misses %q:\n%s", want, body)
		}
	}
	if snap := s.Snapshot(); !strings.Contains(body,
		fmt.Sprintf("intentd_snapshot_tuples %d", snap.Info.Tuples)) {
		t.Errorf("/metrics misses snapshot tuple gauge:\n%s", body)
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	w := getWorld(t)
	s := newTestServer(t, staticBuilder(w, w.resA, "static"))

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(ctx, ServeConfig{
			Addr:         "127.0.0.1:0",
			DrainTimeout: 5 * time.Second,
			OnListen:     func(a net.Addr) { addrc <- a.String() },
		})
	}()

	addr := <-addrc
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}
