package bgpintent

// BENCH_pipeline.json emission harness. Gated behind
// BGPINTENT_BENCH_PIPELINE=1 because it runs the full load+classify
// pipeline several times at benchmark fidelity:
//
//	BGPINTENT_BENCH_PIPELINE=1 go test -run TestEmitPipelineBench -v .
//
// It measures the sequential path (Parallelism=1) against parallel
// worker counts for MRT load, classify, and the end-to-end pipeline,
// and writes machine-readable results (ns/op, B/op, allocs/op, peak
// heap, per-stage wall breakdown, speedup vs sequential) plus the host
// machine context (CPU model, physical cores) to BENCH_pipeline.json
// in the working directory.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bgpintent/internal/obs"
)

type pipelineBenchResult struct {
	Name        string `json:"name"`
	Workers     int    `json:"workers"`
	NsPerOp     int64  `json:"ns_op"`
	BytesPerOp  int64  `json:"bytes_op"`
	AllocsPerOp int64  `json:"allocs_op"`
	// SpeedupVs1 is omitted on single_core reports: with one core the
	// ratio measures scheduler overhead, not scaling, and publishing it
	// invites quoting a meaningless number.
	SpeedupVs1 float64 `json:"speedup_vs_sequential,omitempty"`
	// HeapInuse samples the live heap at peak — after the stage's
	// artifact (loaded corpus, classification) is built and before it
	// is released — so the number tracks the store's real footprint,
	// not the post-release residue.
	HeapInuse int64 `json:"heap_inuse"`
	// StageNs breaks one observed load_mrt run into summed
	// worker-nanoseconds per pipeline stage (open, frame, decode,
	// store-add, stitch). Frame appears only when the frame/decode
	// split pipeline activates (workers > files); intern-table time is
	// accounted inside store-add. Durations are worker-seconds, so
	// they exceed wall time when stages run in parallel.
	StageNs map[string]int64 `json:"stage_ns,omitempty"`
}

type pipelineBenchReport struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// CPUModel and PhysicalCores identify the machine the trajectory
	// was captured on; logical CPUs (NumCPU) overstate the scaling
	// headroom on SMT hosts.
	CPUModel      string `json:"cpu_model,omitempty"`
	PhysicalCores int    `json:"physical_cores"`
	// SingleCore marks a report emitted at GOMAXPROCS<2: parallel
	// worker counts measure scheduler overhead, not parallelism, and
	// must not be used as a scaling baseline. Such reports carry no
	// speedup_vs_sequential columns at all.
	SingleCore bool                  `json:"single_core,omitempty"`
	CorpusDays int                   `json:"corpus_days"`
	RIBFiles   int                   `json:"rib_files"`
	Tuples     int                   `json:"tuples"`
	Results    []pipelineBenchResult `json:"results"`
}

// cpuInfo reads the CPU model name and the physical core count from
// /proc/cpuinfo (unique (physical id, core id) pairs). On hosts
// without it — or without topology fields — the core count falls back
// to runtime.NumCPU, which counts SMT threads.
func cpuInfo() (model string, physicalCores int) {
	physicalCores = runtime.NumCPU()
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "", physicalCores
	}
	type coreKey struct{ phys, core string }
	seen := map[coreKey]bool{}
	var phys, core string
	flush := func() {
		if phys != "" || core != "" {
			seen[coreKey{phys, core}] = true
		}
		phys, core = "", ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			flush() // blank line ends a processor block
			continue
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "model name":
			if model == "" {
				model = v
			}
		case "physical id":
			phys = v
		case "core id":
			core = v
		}
	}
	flush()
	if len(seen) > 0 {
		physicalCores = len(seen)
	}
	return model, physicalCores
}

// TestEmitPipelineBench measures sequential vs parallel load and
// classification and writes BENCH_pipeline.json.
func TestEmitPipelineBench(t *testing.T) {
	if os.Getenv("BGPINTENT_BENCH_PIPELINE") != "1" {
		t.Skip("set BGPINTENT_BENCH_PIPELINE=1 to run the pipeline bench harness")
	}
	singleCore := runtime.GOMAXPROCS(0) < 2
	if singleCore && os.Getenv("BGPINTENT_BENCH_ALLOW_SINGLE_CORE") != "1" {
		t.Fatalf("refusing to emit BENCH_pipeline.json at GOMAXPROCS=%d: parallel speedups "+
			"measured on one core are scheduler overhead, not scaling; run on a multi-core "+
			"host or set BGPINTENT_BENCH_ALLOW_SINGLE_CORE=1 to emit a flagged report",
			runtime.GOMAXPROCS(0))
	}
	days := benchDays()
	ribs, err := writeBenchMRT(days, false)
	if err != nil {
		t.Fatal(err)
	}

	model, cores := cpuInfo()
	report := &pipelineBenchReport{
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		CPUModel:      model,
		PhysicalCores: cores,
		SingleCore:    singleCore,
		CorpusDays:    days,
		RIBFiles:      len(ribs),
	}
	if singleCore {
		t.Log("GOMAXPROCS<2: report will carry single_core=true and no speedup columns")
	}

	// One warm load to size the fixture for the report and to feed the
	// classify benchmarks.
	warm, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	report.Tuples = warm.Tuples()

	workerCounts := []int{1, 2, 4, 8}
	measure := func(name string, workers int, fn func()) testing.BenchmarkResult {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		t.Logf("%s workers=%d: %s %s", name, workers, res.String(), res.MemString())
		return res
	}
	// peakHeap runs the stage once more and samples the live heap while
	// its artifact is still referenced: the footprint at peak, not what
	// is left after the corpus is dropped.
	peakHeap := func(build func() any) int64 {
		artifact := build()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h := int64(ms.HeapInuse)
		runtime.KeepAlive(artifact)
		return h
	}
	record := func(name string, run func(workers int), keep func(workers int) any, stages func(workers int) map[string]int64) {
		var seqNs int64
		for _, w := range workerCounts {
			w := w
			res := measure(name, w, func() { run(w) })
			r := pipelineBenchResult{
				Name:        name,
				Workers:     w,
				NsPerOp:     res.NsPerOp(),
				BytesPerOp:  res.AllocedBytesPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
				HeapInuse:   peakHeap(func() any { return keep(w) }),
			}
			if stages != nil {
				r.StageNs = stages(w)
			}
			if w == 1 {
				seqNs = r.NsPerOp
			}
			if !singleCore && seqNs > 0 {
				r.SpeedupVs1 = float64(seqNs) / float64(r.NsPerOp)
			}
			report.Results = append(report.Results, r)
		}
	}

	mustLoad := func(workers int, o LoadOptions) *Corpus {
		o.Parallelism = workers
		c, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs}, o)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// loadStages runs one observed load and sums span durations by
	// stage. Observation itself costs a little (per-tuple store-add
	// timing), which is why the breakdown comes from a separate run
	// rather than the measured ones.
	loadStages := func(workers int) map[string]int64 {
		var mu sync.Mutex
		agg := map[string]int64{}
		col := obs.Funcs{OnStageEnd: func(span obs.Span) {
			mu.Lock()
			agg[string(span.Stage)] += int64(span.Duration)
			mu.Unlock()
		}}
		mustLoad(workers, LoadOptions{Observer: col})
		return agg
	}

	record("load_mrt",
		func(workers int) { mustLoad(workers, LoadOptions{}) },
		func(workers int) any { return mustLoad(workers, LoadOptions{}) },
		loadStages)
	record("classify",
		func(workers int) { mustClassify(t, warm, Params{Parallelism: workers}) },
		func(workers int) any { return mustClassify(t, warm, Params{Parallelism: workers}) },
		nil)
	record("pipeline",
		func(workers int) {
			mustClassify(t, mustLoad(workers, LoadOptions{}), Params{Parallelism: workers})
		},
		func(workers int) any {
			c := mustLoad(workers, LoadOptions{})
			return []any{c, mustClassify(t, c, Params{Parallelism: workers})}
		},
		nil)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile("BENCH_pipeline.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_pipeline.json (%d results)", len(report.Results))
}
