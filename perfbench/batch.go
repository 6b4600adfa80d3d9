package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"bgpintent"
	"bgpintent/internal/dict"
)

// batchOut is what the batch path measured and what later phases reuse.
type batchOut struct {
	ops
	setup                time.Duration
	walls, cpus, heapsMB []float64
	accuracy             float64
	ref                  *bgpintent.Result // workers=1 result, the oracle for every later check
	refSnap, refTSV      []byte
	snapPath             string // the reference snapshot, served by intentd
	runPath              string // where measured runs write their snapshot
	lastCorpus           *bgpintent.Corpus
	lastResult           *bgpintent.Result
	lastInfo             bgpintent.SnapshotInfo
}

// accuracyFloor is the least agreement with the generator's ground-truth
// dictionary a batch result may show; the classifier scores about 0.99
// on these corpora.
const accuracyFloor = 0.9

// setupRuns is how many times the batch set-up is done and timed.
const setupRuns = 3

// snapshotCreated pins the snapshot timestamp so snapshot bytes compare
// equal across runs.
var snapshotCreated = time.Unix(mrtEpoch, 0).UTC()

// batchRun is one MRT → snapshot-file run on the intentinfer path.
type batchRun struct {
	corpus *bgpintent.Corpus
	result *bgpintent.Result
	info   bgpintent.SnapshotInfo
}

func (in *inputs) sources() bgpintent.Sources {
	return bgpintent.Sources{RIBs: in.ribs, Updates: in.upds, OrgPath: in.orgPath}
}

func runBatchOnce(ctx context.Context, in *inputs, workers int, snapPath string) (batchRun, error) {
	c, _, err := bgpintent.LoadMRT(ctx, in.sources(), bgpintent.LoadOptions{Parallelism: workers})
	if err != nil {
		return batchRun{}, err
	}
	p := bgpintent.DefaultParams()
	p.Parallelism = workers
	res, err := c.ClassifyContext(ctx, p)
	if err != nil {
		return batchRun{}, err
	}
	info := c.SnapshotInfo(in.wl.name)
	info.Created = snapshotCreated
	if err := writeFile(snapPath, func(w io.Writer) error { return res.WriteSnapshotFlat(w, info) }); err != nil {
		return batchRun{}, err
	}
	return batchRun{corpus: c, result: res, info: info}, nil
}

// newBatch runs the oracle and the warm-up; measured runs come from
// round.
func newBatch(ctx context.Context, cfg config, in *inputs, work string) (*batchOut, error) {
	out := &batchOut{snapPath: filepath.Join(work, "ref.snap"), runPath: filepath.Join(work, "run.snap")}

	// The oracle: a sequential run over the same inputs. It is not
	// timed; every measured run must reproduce its bytes.
	ref, err := runBatchOnce(ctx, in, 1, out.snapPath)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	out.ref = ref.result
	if out.refSnap, err = os.ReadFile(out.snapPath); err != nil {
		return nil, err
	}
	var tsv bytes.Buffer
	if err := ref.result.WriteTSV(&tsv); err != nil {
		return nil, err
	}
	out.refTSV = tsv.Bytes()
	if cfg.injectWrongAnswer {
		out.refTSV = append(out.refTSV, "0:0\tinjected\n"...)
	}
	out.accuracy = dictAccuracy(ref.result, in)
	out.attempted++
	if out.accuracy < accuracyFloor {
		out.failed++
	}

	// Set-up: a run at full parallelism warms the page cache and grows
	// the heap; it is timed as set-up, not as a measured run. It is done
	// setupRuns times, each after the heap is handed back to the OS so
	// that the heap grows again, and set-up is the median.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		out.lastCorpus, out.lastResult = nil, nil
		debug.FreeOSMemory()
		start := time.Now()
		r, err := runBatchOnce(ctx, in, runtime.NumCPU(), out.runPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		out.check(r)
	}
	out.setup = time.Duration(median(setups) * float64(time.Second))
	return out, nil
}

// round measures runs until budget has passed, at least one.
func (out *batchOut) round(ctx context.Context, in *inputs, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		out.lastCorpus, out.lastResult = nil, nil // measure one run's heap, not two
		base := liveHeapMB()
		u := readUsage()
		r, err := runBatchOnce(ctx, in, runtime.NumCPU(), out.runPath)
		c := since(u)
		if err != nil {
			out.attempted++
			out.failed++
			continue
		}
		out.walls = append(out.walls, c.wall.Seconds())
		out.cpus = append(out.cpus, c.cpu.Seconds())
		out.heapsMB = append(out.heapsMB, liveHeapMB()-base)
		runtime.KeepAlive(r)
		out.check(r)
	}
}

// check counts one run, failed unless it reproduced the oracle's TSV
// and snapshot bytes, and keeps it for the traced pass.
func (out *batchOut) check(r batchRun) {
	out.attempted++
	if !out.matches(r, out.runPath) {
		out.failed++
	}
	out.lastCorpus, out.lastResult, out.lastInfo = r.corpus, r.result, r.info
}

// matches reports whether a measured run reproduced the oracle's TSV
// and snapshot bytes.
func (out *batchOut) matches(r batchRun, snapPath string) bool {
	snap, err := os.ReadFile(snapPath)
	if err != nil || !bytes.Equal(snap, out.refSnap) {
		return false
	}
	var tsv bytes.Buffer
	return r.result.WriteTSV(&tsv) == nil && bytes.Equal(tsv.Bytes(), out.refTSV)
}

var liveHeapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeapMB collects garbage and returns the live heap in MiB; the
// caller keeps what it measures referenced.
func liveHeapMB() float64 {
	runtime.GC()
	metrics.Read(liveHeapSample)
	return float64(liveHeapSample[0].Value.Uint64()) / (1 << 20)
}

// dictAccuracy scores the classic labels against the generator's
// ground-truth dictionary, over the communities both cover.
func dictAccuracy(res *bgpintent.Result, in *inputs) float64 {
	scored, right := 0, 0
	for _, l := range res.Labeled() {
		var want bgpintent.Category
		switch in.truth.Category(uint32(l.Community.ASN), l.Community.Value) {
		case dict.CatAction:
			want = bgpintent.Action
		case dict.CatInformation:
			want = bgpintent.Information
		default:
			continue
		}
		scored++
		if l.Category == want {
			right++
		}
	}
	if scored == 0 {
		return 0
	}
	return float64(right) / float64(scored)
}
