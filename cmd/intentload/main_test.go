package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"bgpintent"
	"bgpintent/internal/loadgen"
	"bgpintent/internal/serve"
)

// repoFile names a committed file at the repository root.
func repoFile(parts ...string) string {
	return filepath.Join(append([]string{"..", ".."}, parts...)...)
}

// TestRunCheckCommittedReport: -check accepts the committed
// BENCH_serve.json.
func TestRunCheckCommittedReport(t *testing.T) {
	if err := run(context.Background(), []string{"-check", repoFile("BENCH_serve.json")}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckRejectsMissingP99: a report without p99_us fails -check.
func TestRunCheckRejectsMissingP99(t *testing.T) {
	data, err := os.ReadFile(repoFile("BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["p99_us"]; !ok {
		t.Fatal("committed report has no p99_us field")
	}
	delete(fields, "p99_us")
	data, err = json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "no_p99.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-check", path}); err == nil {
		t.Fatal("-check accepted a report without p99_us")
	}
}

// TestRunClosedLoopWritesValidReport drives a short closed loop against
// an in-process server over the golden snapshot and validates the
// report it writes.
func TestRunClosedLoopWritesValidReport(t *testing.T) {
	snap := repoFile("testdata", "golden_classic.v2snap")
	srv, err := serve.New(context.Background(), func(context.Context) (*bgpintent.Result, bgpintent.SnapshotInfo, string, error) {
		res, info, err := bgpintent.OpenSnapshotFile(snap)
		return res, info, snap, err
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	err = run(context.Background(), []string{
		"-url", hs.URL, "-snapshot", snap, "-mode", "closed",
		"-duration", "300ms", "-concurrency", "2", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.ReadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("written report invalid: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
}

// TestRunRejectsUnknownFlag: an unknown flag is an error, not a run.
func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
