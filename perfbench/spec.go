package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricSpec names one printed metric. BENCHMARK.json lists the same
// names and units; the self-test holds the two together.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// -trace 0 on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"batch_s", "s"},
	{"batch_cpu_s", "s"},
	{"batch_heap_mb", "MiB"},
	{"serve_qps", "req/s"},
	{"live_updates_per_s", "upd/s"},
}

// freshTailQuantile is the percentile stream.fresh_tail_ms reports. A run
// takes at least minFreshSamples freshness samples, so at least ten lie
// beyond it.
const (
	freshTailQuantile = 0.80
	minFreshSamples   = 50
)

// perLayer are the traced-run metrics, printed with -trace 1. Each timed
// layer call reports wall (_s), process CPU (_cpu_s) and allocated MiB
// (_alloc_mb); the counts say how much work the call did.
var perLayer = append(spanMetrics(
	"mrt.decode", "ingest.scan", "core.store_add", "core.stitch", "core.annotate_orgs",
	"core.observe", "core.cluster_label", "core.snapshot_meta", "core.snapshot_write",
	"stream.window_add", "core.classify_delta",
),
	metricSpec{"mrt.records", "count"},
	metricSpec{"ingest.frame_records", "count"},
	metricSpec{"core.views", "count"},
	metricSpec{"core.tuples", "count"},
	metricSpec{"core.tuple_yield", "tuples/view"},
	metricSpec{"core.clusters", "count"},
	metricSpec{"core.large_clusters", "count"},
	metricSpec{"core.snapshot_bytes", "bytes"},
	metricSpec{"core.snapshot_open_us", "us"},
	metricSpec{"serve.community_hit_us", "us"},
	metricSpec{"serve.community_miss_us", "us"},
	metricSpec{"serve.annotate_us", "us"},
	metricSpec{"serve.cache_hit_ratio", "ratio"},
	metricSpec{"stream.delta_ms_p50", "ms"},
	metricSpec{"stream.dirty_alpha_frac", "ratio"},
	metricSpec{"stream.evicted", "count"},
	metricSpec{"serve.open_p50_us", "us"},
	metricSpec{"serve.open_p99_us", "us"},
	metricSpec{"stream.fresh_p50_ms", "ms"},
	metricSpec{"stream.fresh_tail_ms", "ms"},
	metricSpec{"bench.open_late_p99_us", "us"},
	metricSpec{"trace.batch_pass_s", "s"},
	metricSpec{"trace.batch_self_s", "s"},
	metricSpec{"trace.overhead_s", "s"},
)

func spanMetrics(names ...string) []metricSpec {
	var out []metricSpec
	for _, n := range names {
		out = append(out,
			metricSpec{n + "_s", "s"},
			metricSpec{n + "_cpu_s", "s"},
			metricSpec{n + "_alloc_mb", "MiB"})
	}
	return out
}

// workload is one input shape. Every workload drives all three paths
// (batch, serve, live); the shapes differ in what the batch and serve
// paths exercise.
type workload struct {
	name string
	// largeMatrix mirrors every origin-attached community as a large
	// community; otherwise the corpus is classic-only.
	largeMatrix bool
	// oneFile concatenates every RIB dump into a single file (and omits
	// the updates files), so ingestion has fewer files than workers.
	oneFile bool
}

var workloads = []workload{
	{name: "classic-files"},
	{name: "large-onefile", largeMatrix: true, oneFile: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// scale fixes the input sizes and load parameters of a run.
type scale struct {
	name string
	days int // simulated days of MRT input
	// viewsPerDay caps the routes written per simulated day (0: all).
	// Route counts vary by a few percent between seeds; the cap keeps
	// the batch work nearly equal across seeds.
	viewsPerDay int

	annotateTuples int     // corpus tuples sampled for annotate bodies
	unobserved     float64 // unobserved keys added to the uniform universe, per observed key
	requests       int     // length of the pre-generated request sequence
	openRate       float64 // open-loop arrivals per second
	openWindow     int

	liveUpdates   int // updates fed per live repetition
	snapshotEvery int // 0 keeps the stream default (5,000)
	windowSpan    time.Duration
	windowBuckets int
}

func scaleFor(tiny bool) scale {
	if tiny {
		return scale{
			name: "tiny", days: 2,
			annotateTuples: 256, unobserved: 0.5, requests: 4096, openRate: 1000, openWindow: 200,
			liveUpdates: 3000, snapshotEvery: 100, windowSpan: 6 * time.Hour, windowBuckets: 6,
		}
	}
	return scale{
		name: "default", days: 2, viewsPerDay: 250000,
		annotateTuples: 4096, unobserved: 0.5, requests: 1 << 16, openRate: 1500, openWindow: 1000,
		liveUpdates: 120000, windowSpan: 6 * time.Hour, windowBuckets: 6,
	}
}

// provenance records what produced a run's numbers.
func provenance(cfg config, wl workload, sc scale, in *inputs) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":       wl.name,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"scale":          sc.name,
		"days":           sc.days,
		"views_per_day":  sc.viewsPerDay,
		"large_matrix":   wl.largeMatrix,
		"one_file":       wl.oneFile,
		"open_rate":      sc.openRate,
		"live_updates":   sc.liveUpdates,
		"go_version":     runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"vcs_revision":   rev,
		"vcs_modified":   dirty,
		"input_files":    in.files,
		"input_bytes":    in.bytes,
		"sampled_tuples": len(in.tuples),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the middle of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
