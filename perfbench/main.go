// Command perfbench is the repository's end-to-end benchmark. One run
// takes a workload (an input shape), generates its inputs from the
// seed with the repository's own simulator, and drives the three paths
// a user of the system sees:
//
//   - batch: MRT files → bgpintent.LoadMRT → Corpus.ClassifyContext →
//     Corpus.SnapshotInfo → Result.WriteSnapshotFlat, the intentinfer
//     path;
//   - serve: an intentd -snapshot process answering a fixed request mix
//     over loopback, closed loop for throughput and open loop at a fixed
//     rate for latency;
//   - live: stream.Start over a simulated feed, reclassifying the
//     rolling window with delta snapshots.
//
// Every answer is checked (see README.md for the gates), and the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run adds traced passes that time each layer's public calls from this
// package, and prints the per-layer metrics instead. Usage:
//
//	bash perfbench/run.sh -workload classic-files -seed 1 -seconds 36 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	root    string // checkout root; scratch files live under root/.bench_build
	intentd string // intentd binary built from the checkout

	// tiny selects the test-sized corpus; the self-test uses it.
	tiny bool
	// injectWrongAnswer corrupts every expected answer, so a run that
	// counts no failure has a broken gate; the self-test uses it.
	injectWrongAnswer bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, prov, err := run(context.Background(), cfg, os.Stderr)
	if err == nil {
		err = writeJSONLine(os.Stdout, map[string]any{"provenance": prov})
	}
	if err == nil {
		err = writeJSONLine(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 36, "measurement time of one run")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced per-layer passes and prints per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.intentd, "intentd", ".bench_build/bin/intentd", "intentd binary")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// phases holds each phase's operation counts, for the self-test.
	phases map[string]ops
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ops counts operations attempted and failed in one phase.
type ops struct{ attempted, failed int64 }

func (o *ops) add(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// rounds is how many turns the phases take; see run.
const rounds = 3

// run executes one benchmark invocation and returns its result and
// provenance; log receives progress lines.
func run(ctx context.Context, cfg config, log io.Writer) (result, map[string]any, error) {
	wl, _ := workloadByName(cfg.workload)
	sc := scaleFor(cfg.tiny)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	untraced := budget
	if cfg.trace {
		untraced = budget / 2 // the traced passes get the other half
	}

	base := filepath.Join(cfg.root, ".bench_build", "perfbench")
	work, err := os.MkdirTemp(mkdirAll(base), fmt.Sprintf("%s-seed%d-", wl.name, cfg.seed))
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)

	in, err := generate(wl, sc, cfg.seed, work)
	if err != nil {
		return result{}, nil, fmt.Errorf("generate inputs: %w", err)
	}
	prov := provenance(cfg, wl, sc, in)

	vals := make(map[string]float64)
	phases := make(map[string]ops)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", wl.name, cfg.seed, time.Now().UnixNano()))
	}

	b, err := newBatch(ctx, cfg, in, work)
	if err != nil {
		return result{}, nil, fmt.Errorf("batch: %w", err)
	}
	s, err := newServe(ctx, cfg, in, sc, b)
	if err != nil {
		return result{}, nil, fmt.Errorf("serve: %w", err)
	}
	defer s.stop()
	l, err := newLive(ctx, in, sc, rounds)
	if err != nil {
		return result{}, nil, fmt.Errorf("live: %w", err)
	}
	// The phases take turns, so a spell of other load on the host slows
	// a share of each phase's samples rather than all of one phase's.
	for r := 0; r < rounds; r++ {
		b.round(ctx, in, untraced*30/100/rounds)
		s.round(ctx, untraced*45/100/rounds)
		if err := l.round(ctx, cfg.injectWrongAnswer); err != nil {
			return result{}, nil, fmt.Errorf("live: %w", err)
		}
	}
	if err := s.finish(ctx); err != nil {
		return result{}, nil, fmt.Errorf("serve: %w", err)
	}
	phases["batch"], phases["serve"], phases["live"] = b.ops, s.ops, l.ops
	fmt.Fprintf(log, "batch: %d runs, median %.3fs (%.3f-%.3fs), accuracy %.4f\n",
		len(b.walls), median(b.walls), quantile(b.walls, 0), quantile(b.walls, 1), b.accuracy)
	fmt.Fprintf(log, "serve: %.0f req/s closed loop, open loop p50 %.1fus p99 %.1fus (windows %.0f-%.0fus), cache hit ratio %.3f\n",
		s.qps, s.p50us, s.p99us, quantile(s.p99s, 0), quantile(s.p99s, 1), s.hitRatio)
	fmt.Fprintf(log, "live: %d reps, %.0f upd/s, freshness p50 %.1fms\n", l.reps, median(l.rates), median(l.fresh))

	if !cfg.trace {
		vals["setup_s"] = b.setup.Seconds() + s.setup.Seconds() + median(l.setups)
		vals["batch_s"] = median(b.walls)
		vals["batch_cpu_s"] = median(b.cpus)
		vals["batch_heap_mb"] = median(b.heapsMB)
		vals["serve_qps"] = s.qps
		vals["live_updates_per_s"] = median(l.rates)
		res, err := finish(endToEnd, vals, phases, log)
		return res, prov, err
	}

	tb, err := traceBatch(ctx, tr, in, b, budget*25/100, vals)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced batch: %w", err)
	}
	phases["trace.batch"] = tb
	ts, err := traceServe(ctx, tr, s, sc, vals)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced serve: %w", err)
	}
	phases["trace.serve"] = ts
	tl, err := traceLive(ctx, tr, l, vals)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced live: %w", err)
	}
	phases["trace.live"] = tl

	tr.finish()
	tr.layerMetrics(vals)
	vals["serve.cache_hit_ratio"] = s.hitRatio
	vals["serve.open_p50_us"] = s.p50us
	vals["serve.open_p99_us"] = s.p99us
	vals["stream.fresh_p50_ms"] = median(l.fresh)
	vals["stream.fresh_tail_ms"] = quantile(l.fresh, freshTailQuantile)
	vals["bench.open_late_p99_us"] = s.lateP99us
	vals["trace.overhead_s"] = vals["trace.batch_pass_s"] - median(b.walls)
	path := filepath.Join(mkdirAll(filepath.Join(base, "traces")), tr.runID+".json")
	if err := tr.write(path, prov); err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(log, "trace: %d spans written to %s\n", len(tr.spans), path)
	res, err := finish(perLayer, vals, phases, log)
	return res, prov, err
}

// finish assembles the result line, insisting on a value for every
// metric of the set.
func finish(set []metricSpec, vals map[string]float64, phases map[string]ops, log io.Writer) (result, error) {
	res := result{Metrics: make(map[string]metric, len(set)), phases: phases}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := phases[name]
		res.Attempted += p.attempted
		res.Failed += p.failed
		fmt.Fprintf(log, "%s: %d of %d operations failed\n", name, p.failed, p.attempted)
	}
	res.Correct = res.Failed == 0
	for _, m := range set {
		v, ok := vals[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

func mkdirAll(dir string) string {
	os.MkdirAll(dir, 0o755) //nolint:errcheck // the following create reports the failure
	return dir
}

func writeJSONLine(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
