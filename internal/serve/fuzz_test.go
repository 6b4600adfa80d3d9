package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"bgpintent"
	"bgpintent/internal/anomaly"
)

// FuzzServeRequests sends arbitrary /v1/annotate bodies and
// /v1/anomalies query strings through the server over the golden
// snapshot, with an anomaly engine holding one spike finding attached.
// Bad input must answer 4xx: no panic and no 5xx.
func FuzzServeRequests(f *testing.F) {
	snap := filepath.Join("..", "..", "testdata", "golden_classic.v2snap")
	s, err := New(context.Background(), func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		res, info, err := bgpintent.OpenSnapshotFile(snap)
		return res, info, snap, err
	}, func(string, ...any) {})
	if err != nil {
		f.Fatal(err)
	}
	eng := anomaly.NewEngine(anomaly.Options{BucketSpan: 10 * time.Minute, History: 16, Logf: func(string, ...any) {}})
	feedSpike(f, eng)
	s.SetAnomalies(engineSource{eng})

	for _, seed := range []struct{ body, query string }{
		{`{"communities":["100:10","100:1:59"]}`, "window=90m"},
		{`{"tuples":[{"path":[10,20,30],"communities":["100:666","65535:65535"]}]}`, "since=2020-09-13T12:26:40Z&limit=3"},
		{`{"communities":[],"tuples":[]}`, "detector=spike&limit=0"},
		{`{"communities":["4294967295:4294967295:4294967295"]}`, "window=-1h"},
		{`{"communities":["1:2:3:4"]}`, "limit=-1&window=x"},
		{`{`, "since=yesterday"},
		{``, "%zz&;=&window"},
	} {
		f.Add([]byte(seed.body), seed.query)
	}
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("annotate %q: status %d: %s", body, rec.Code, rec.Body)
		}

		req := httptest.NewRequest(http.MethodGet, "/v1/anomalies", nil)
		req.URL.RawQuery = query
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("anomalies ?%s: status %d: %s", query, rec.Code, rec.Body)
		}
	})
}
