package bgpintent

// Bench regression guard: a cheap CI tripwire that re-measures the
// numbers this codebase stakes its performance story on and compares
// them against the committed BENCH_pipeline.json baseline:
//
//   - load_mrt allocations per op, normalized per tuple so corpus size
//     (BGPINTENT_BENCH_DAYS) doesn't skew the comparison — fails on a
//     >20% regression, which would mean the columnar store's
//     allocation-free hot path has been eroded;
//   - load_mrt allocs per tuple on a mixed classic+large (std/lrg
//     matrix) corpus vs the classic-only number from the same run —
//     fails above 1.5×, which would mean keying large communities into
//     the store stopped being allocation-free;
//   - classify speedup at workers=4 vs workers=1 — fails below 1.0×,
//     which would mean parallel classification went back to being
//     slower than sequential (the pre-CSR pathology was 0.72×);
//   - load_mrt speedup at workers=4 vs workers=1 (only with >=4
//     schedulable CPUs) — fails below 1.5×, which would mean the
//     merge-free parallel load path has re-serialized.
//
// Gated behind BGPINTENT_BENCH_GUARD=1 because it runs the pipeline at
// benchmark fidelity (tens of seconds):
//
//	BGPINTENT_BENCH_GUARD=1 go test -run TestBenchGuard -v .

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

const (
	// guardLoadAllocHeadroom is how much per-tuple allocation growth the
	// guard tolerates before failing (measurement noise on allocs/op is
	// small; 20% catches any real per-view regression).
	guardLoadAllocHeadroom = 1.20
	// guardMinClassifySpeedup is the floor for classify's workers=4
	// speedup over sequential. Best-of-3 benchmark runs keep scheduler
	// noise out of the ratio; a genuine regression to the old
	// merge-heavy Observe shows up as ~0.7, far below the floor.
	guardMinClassifySpeedup = 1.0
	// guardMixedAllocFactor bounds how much a mixed classic+large corpus
	// may cost per tuple relative to the classic-only corpus measured in
	// the same run. The std/lrg matrix roughly doubles the community
	// payload per view, but large sets deduplicate through the shared
	// intern table, so the steady-state per-tuple cost is nearly flat
	// (measured ~1.01x); 1.5x is the tripwire for the keyed-large path
	// falling off the allocation-free hot path (e.g. per-view boxing of
	// large community slices or a map allocation per tuple).
	guardMixedAllocFactor = 1.5
	// guardMinLoadSpeedup is the floor for load_mrt's workers=4 speedup
	// over sequential, checked only with >=4 schedulable CPUs. The
	// merge-free store plus the frame/decode split should deliver well
	// above 2x at 4 workers; 1.5x is the tripwire for the load path
	// quietly re-serializing (a global lock on the hot path, the split
	// pipeline failing to activate, or a stitch that re-copies data).
	guardMinLoadSpeedup = 1.5
)

func TestBenchGuard(t *testing.T) {
	if os.Getenv("BGPINTENT_BENCH_GUARD") != "1" {
		t.Skip("set BGPINTENT_BENCH_GUARD=1 to run the bench regression guard")
	}
	raw, err := os.ReadFile("BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline pipelineBenchReport
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("parsing BENCH_pipeline.json: %v", err)
	}
	baseLoad := findBenchResult(&baseline, "load_mrt", 1)
	if baseLoad == nil || baseline.Tuples == 0 {
		t.Fatal("BENCH_pipeline.json has no load_mrt workers=1 baseline")
	}
	if baseline.SingleCore || baseline.GoMaxProcs < 2 {
		t.Logf("baseline was emitted at GOMAXPROCS=%d (single-core): its speedup columns are not "+
			"a scaling reference; the guard measures speedup fresh and only uses the baseline's "+
			"allocation counts", baseline.GoMaxProcs)
	}

	ribs, err := writeBenchMRT(benchDays(), false)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Tuples() == 0 {
		t.Fatal("empty bench corpus")
	}

	// Load allocation regression, per tuple.
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocsPerTuple := float64(res.AllocsPerOp()) / float64(warm.Tuples())
	baseAllocsPerTuple := float64(baseLoad.AllocsPerOp) / float64(baseline.Tuples)
	limit := baseAllocsPerTuple * guardLoadAllocHeadroom
	t.Logf("load_mrt allocs/tuple: got %.3f, baseline %.3f, limit %.3f",
		allocsPerTuple, baseAllocsPerTuple, limit)
	if allocsPerTuple > limit {
		t.Errorf("load_mrt allocations regressed: %.3f allocs/tuple exceeds %.3f (baseline %.3f +%d%%)",
			allocsPerTuple, limit, baseAllocsPerTuple, int(guardLoadAllocHeadroom*100)-100)
	}

	// Mixed-community load tripwire: the same corpus with the std/lrg
	// matrix enabled, measured against the classic-only number from this
	// very run (self-relative, so baseline drift and host noise cancel).
	// Large communities are full inference subjects — keyed into the
	// tuple store through the shared intern table — and that keyed path
	// must stay within a constant factor of the classic hot path.
	mixedRibs, err := writeBenchMRT(benchDays(), true)
	if err != nil {
		t.Fatal(err)
	}
	mixedWarm, _, err := LoadMRT(context.Background(), Sources{RIBs: mixedRibs}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mixedWarm.LargeCommunities() == 0 {
		t.Fatal("matrix bench corpus observed no large communities; mirroring inert")
	}
	mixedRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: mixedRibs}, LoadOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	mixedAllocsPerTuple := float64(mixedRes.AllocsPerOp()) / float64(mixedWarm.Tuples())
	mixedLimit := allocsPerTuple * guardMixedAllocFactor
	t.Logf("load_mrt mixed allocs/tuple: got %.3f, classic %.3f, limit %.3f (%d large communities)",
		mixedAllocsPerTuple, allocsPerTuple, mixedLimit, mixedWarm.LargeCommunities())
	if mixedAllocsPerTuple > mixedLimit {
		t.Errorf("mixed-community load regressed: %.3f allocs/tuple exceeds %.1fx the classic-only %.3f — "+
			"the keyed large-community path has fallen off the allocation-free hot path",
			mixedAllocsPerTuple, guardMixedAllocFactor, allocsPerTuple)
	}

	// Parallel scaling: best-of-3 at each worker count. On a
	// single-core host a workers=4 run measures scheduler overhead, not
	// parallelism, so the checks would reject healthy code — skip them.
	if runtime.GOMAXPROCS(0) < 2 {
		t.Logf("GOMAXPROCS=%d: skipping speedup checks (meaningless on one core)", runtime.GOMAXPROCS(0))
		return
	}
	bestOf3 := func(fn func()) int64 {
		best := int64(math.MaxInt64)
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					fn()
				}
			})
			if ns := r.NsPerOp(); ns < best {
				best = ns
			}
		}
		return best
	}
	classify := func(workers int) int64 {
		return bestOf3(func() { mustClassify(t, warm, Params{Parallelism: workers}) })
	}
	seq := classify(1)
	par := classify(4)
	speedup := float64(seq) / float64(par)
	t.Logf("classify: workers=1 %dns, workers=4 %dns, speedup %.3f", seq, par, speedup)
	if speedup < guardMinClassifySpeedup {
		t.Errorf("classify speedup at workers=4 is %.3fx, want >= %.2fx — parallel classification is slower than sequential",
			speedup, guardMinClassifySpeedup)
	}

	// Load scaling needs at least as many schedulable CPUs as workers;
	// at GOMAXPROCS 2-3 a workers=4 ratio understates the pipeline.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Logf("GOMAXPROCS=%d: skipping load_mrt speedup check (needs >=4)", runtime.GOMAXPROCS(0))
		return
	}
	load := func(workers int) int64 {
		return bestOf3(func() {
			if _, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	loadSeq := load(1)
	loadPar := load(4)
	loadSpeedup := float64(loadSeq) / float64(loadPar)
	t.Logf("load_mrt: workers=1 %dns, workers=4 %dns, speedup %.3f (%d rib files)",
		loadSeq, loadPar, loadSpeedup, len(ribs))
	if loadSpeedup < guardMinLoadSpeedup {
		t.Errorf("load_mrt speedup at workers=4 is %.3fx, want >= %.2fx — the parallel load path has re-serialized",
			loadSpeedup, guardMinLoadSpeedup)
	}
}

func findBenchResult(r *pipelineBenchReport, name string, workers int) *pipelineBenchResult {
	for i := range r.Results {
		res := &r.Results[i]
		if res.Name == name && res.Workers == workers {
			return res
		}
	}
	return nil
}
