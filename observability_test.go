package bgpintent

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bgpintent/internal/obs"
)

// TestParamsValidate is the contract table for Params.Validate: zero
// values mean "paper default" and always pass; set values must make
// sense.
func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"zero", Params{}, true},
		{"defaults", DefaultParams(), true},
		{"gap only", Params{MinGap: 200}, true},
		{"ratio 1", Params{RatioThreshold: 1}, true},
		{"ratio large", Params{RatioThreshold: 1e9}, true},
		{"negative gap", Params{MinGap: -1}, false},
		{"negative ratio", Params{RatioThreshold: -2}, false},
		{"fractional ratio", Params{RatioThreshold: 0.5}, false},
		{"tiny ratio", Params{RatioThreshold: 1e-9}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.p, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%+v) accepted", tc.p)
			}
		})
	}
}

func TestClassifyContextRejectsInvalidParams(t *testing.T) {
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClassifyContext(context.Background(), Params{RatioThreshold: 0.5}); err == nil {
		t.Error("ClassifyContext accepted RatioThreshold 0.5")
	}
}

// TestObservedLoadAndClassifyIdentical is the observability no-op
// contract: attaching an Observer (at any worker count) changes no
// byte of the pipeline's output.
func TestObservedLoadAndClassifyIdentical(t *testing.T) {
	ribs, updates, orgPath := writeParallelFixture(t)
	src := Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}

	base, _, err := LoadMRT(context.Background(), src, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.ClassifyContext(context.Background(), Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var baseTSV bytes.Buffer
	if err := baseRes.WriteTSV(&baseTSV); err != nil {
		t.Fatal(err)
	}
	info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "obs-test",
		Tuples: base.Tuples(), Paths: base.Paths()}
	var baseSnap bytes.Buffer
	if err := baseRes.WriteSnapshot(&baseSnap, info); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		col := &obs.Collector{}
		c, stats, err := LoadMRT(context.Background(), src, LoadOptions{
			Parallelism: workers, Observer: col, ProgressInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Files != len(ribs)+len(updates) {
			t.Errorf("workers=%d: stats cover %d files, want %d", workers, stats.Files, len(ribs)+len(updates))
		}
		res, err := c.ClassifyContext(context.Background(), Params{Parallelism: workers, Observer: col})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var tsv bytes.Buffer
		if err := res.WriteTSV(&tsv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tsv.Bytes(), baseTSV.Bytes()) {
			t.Errorf("workers=%d: observed TSV differs from unobserved baseline", workers)
		}
		var snap bytes.Buffer
		if err := res.WriteSnapshot(&snap, info); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), baseSnap.Bytes()) {
			t.Errorf("workers=%d: observed snapshot differs from unobserved baseline", workers)
		}

		// The span stream must cover every load + classify stage.
		seen := map[Stage]bool{}
		for _, s := range col.Spans() {
			seen[s.Stage] = true
		}
		for _, stage := range []Stage{
			StageOpen, StageDecode, StageStoreAdd, StageStitch,
			StageObserve, StageCluster, StageRatio, StageClassify,
		} {
			if !seen[stage] {
				t.Errorf("workers=%d: no span for stage %q", workers, stage)
			}
		}
		evs := col.Events()
		if len(evs) == 0 || !evs[len(evs)-1].Final {
			t.Errorf("workers=%d: progress stream does not end with a final event (%d events)", workers, len(evs))
		}
		final := evs[len(evs)-1]
		if final.Files != int64(len(ribs)+len(updates)) || final.FilesDone != final.Files {
			t.Errorf("workers=%d: final progress files=%d/%d, want %d/%d",
				workers, final.FilesDone, final.Files, len(ribs)+len(updates), len(ribs)+len(updates))
		}
		if final.Records == 0 || final.Tuples == 0 {
			t.Errorf("workers=%d: final progress carries no throughput (records=%d tuples=%d)",
				workers, final.Records, final.Tuples)
		}
	}
}

// settleGoroutines polls until the goroutine count returns to the
// baseline (GC of test infrastructure can keep strays briefly alive).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle to %d (now %d):\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLoadMRTCancellation cancels a load mid-decode (from an observer
// hook, so cancellation strikes while workers are busy) and checks the
// error and that no worker goroutine leaks.
func TestLoadMRTCancellation(t *testing.T) {
	ribs, updates, orgPath := writeParallelFixture(t)
	src := Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}
	baseline := runtime.NumGoroutine()

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var once atomic.Bool
		hook := obs.Funcs{
			OnStageStart: func(stage Stage, label string) {
				// First decode start: workers are mid-flight. Cancel.
				if stage == StageDecode && once.CompareAndSwap(false, true) {
					cancel()
				}
			},
		}
		_, _, err := LoadMRT(ctx, src, LoadOptions{Parallelism: workers, Observer: hook})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: LoadMRT after cancel = %v, want context.Canceled", workers, err)
		}
		cancel()
		settleGoroutines(t, baseline)
	}

	// A context canceled before the call aborts before any decode work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := LoadMRT(ctx, src, LoadOptions{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled LoadMRT = %v, want context.Canceled", err)
	}
	settleGoroutines(t, baseline)
}

// TestClassifyContextCancellation cancels classification and checks
// context.Canceled surfaces with no goroutine leak.
func TestClassifyContextCancellation(t *testing.T) {
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := c.ClassifyContext(ctx, Params{Parallelism: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ClassifyContext after cancel = %v, want context.Canceled", workers, err)
		}
		settleGoroutines(t, baseline)
	}

	// Cancel mid-run, from the observe-stage start hook.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := obs.Funcs{
		OnStageStart: func(stage Stage, label string) {
			if stage == StageObserve {
				cancel()
			}
		},
	}
	_, err = c.ClassifyContext(ctx, Params{Parallelism: 4, Observer: hook})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancel = %v, want context.Canceled", err)
	}
	settleGoroutines(t, baseline)
}
