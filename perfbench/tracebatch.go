package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bgpintent"
	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
	"bgpintent/internal/obs"
)

// view is one decoded route as the ingest layer hands it to the store.
type view struct {
	vp     uint32
	path   []uint32
	comms  bgp.Communities
	larges bgp.LargeCommunities
}

// arena hands out sub-slices of large shared chunks, so a few million
// captured views cost a few allocations.
type arena[T any] struct{ cur []T }

func (a *arena[T]) copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < len(src) {
		a.cur = make([]T, 0, max(1<<16, len(src)))
	}
	n := len(a.cur)
	a.cur = append(a.cur, src...)
	return a.cur[n:len(a.cur):len(a.cur)]
}

// captureViews decodes every input once, untimed, keeping the views
// the store-add replay feeds back in.
func captureViews(ctx context.Context, files []ingest.InputFile) ([]view, error) {
	var views []view
	var paths arena[uint32]
	var comms arena[bgp.Community]
	var larges arena[bgp.LargeCommunity]
	var flat []uint32
	keep := func(vp uint32, p bgp.ASPath, c bgp.Communities, l bgp.LargeCommunities) {
		flat = p.AppendFlatten(flat[:0])
		views = append(views, view{vp: vp, path: paths.copy(flat), comms: comms.copy(c), larges: larges.copy(l)})
	}
	err := ingest.ScanParallelContext(ctx, files, ingest.Options{}, 1, nil,
		func(v *mrt.RIBView) error {
			keep(v.Peer.ASN, v.Entry.Attrs.ASPath, v.Entry.Attrs.Communities, v.Entry.Attrs.LargeCommunities)
			return nil
		},
		func(v *mrt.UpdateView) error {
			if len(v.Update.NLRI) > 0 { // pure withdrawals carry no tuple, as in LoadMRT
				keep(v.PeerAS, v.Update.Attrs.ASPath, v.Update.Attrs.Communities, v.Update.Attrs.LargeCommunities)
			}
			return nil
		})
	return views, err
}

func (in *inputs) inputFiles() []ingest.InputFile {
	var files []ingest.InputFile
	for _, p := range in.ribs {
		files = append(files, ingest.InputFile{Path: p})
	}
	for _, p := range in.upds {
		files = append(files, ingest.InputFile{Path: p, Updates: true})
	}
	return files
}

// decodeAll runs the mrt scanners over every input on one goroutine,
// with no store behind them, and returns the records framed.
func decodeAll(files []ingest.InputFile) (int, error) {
	records := 0
	for _, f := range files {
		fh, err := os.Open(f.Path)
		if err != nil {
			return 0, err
		}
		var st mrt.Stats
		opts := mrt.ScanOptions{Lenient: true, Stats: &st}
		if f.Updates {
			s := mrt.NewUpdateScannerOptions(fh, opts)
			for err == nil {
				_, err = s.Next()
			}
		} else {
			s := mrt.NewTableDumpScannerOptions(fh, opts)
			for err == nil {
				_, err = s.Next()
			}
		}
		fh.Close()
		if err != io.EOF {
			return 0, fmt.Errorf("decode %s: %w", f.Path, err)
		}
		records += st.Records
	}
	return records, nil
}

// frameCounter receives the ingest layer's frame-split stage spans.
type frameCounter struct {
	mu      sync.Mutex
	records int64
}

func (f *frameCounter) StageStart(obs.Stage, string) {}
func (f *frameCounter) Progress(obs.ProgressEvent)   {}
func (f *frameCounter) StageEnd(s obs.Span) {
	if s.Stage == obs.StageFrame {
		f.mu.Lock()
		f.records += s.Records
		f.mu.Unlock()
	}
}

// traceBatch times the batch pipeline layer by layer from outside: a
// standalone decode pass, then one pass per iteration that scans with
// no-op callbacks, replays the captured views into a sharded store from
// nproc goroutines, stitches, observes, clusters and labels, and times
// the facade's snapshot metadata and write calls. Each layered result
// must reproduce the oracle's snapshot bytes.
func traceBatch(ctx context.Context, tr *tracer, in *inputs, b *batchOut, budget time.Duration, vals map[string]float64) (ops, error) {
	var o ops
	nproc := runtime.NumCPU()
	files := in.inputFiles()
	views, err := captureViews(ctx, files)
	if err != nil {
		return o, err
	}
	of, err := os.Open(in.orgPath)
	if err != nil {
		return o, err
	}
	orgs, err := asrel.ReadOrgMap(of)
	of.Close()
	if err != nil {
		return o, err
	}
	opts := core.DefaultOptions()
	opts.Orgs = orgs
	opts.Workers = nproc
	snapPath := filepath.Join(filepath.Dir(b.snapPath), "trace.snap")

	var records, frameRecords, tuples, clusters, largeClusters, snapBytes float64
	deadline := time.Now().Add(budget)
	for passes := 0; passes < 2 || time.Now().Before(deadline); passes++ {
		err := tr.do(0, "mrt.decode", func(int) error {
			n, err := decodeAll(files)
			records = float64(n)
			return err
		})
		if err != nil {
			return o, err
		}
		var ts *core.TupleStore
		var inf *core.Inferences
		err = tr.do(0, "batch.pass", func(root int) error {
			fc := &frameCounter{}
			itr := obs.NewTracer(fc, 0)
			noRIB := func(*mrt.RIBView) error { return nil }
			noUpd := func(*mrt.UpdateView) error { return nil }
			if err := tr.do(root, "ingest.scan", func(int) error {
				return ingest.ScanParallelContext(ctx, files, ingest.Options{Tracer: itr}, nproc, &ingest.Stats{}, noRIB, noUpd)
			}); err != nil {
				return err
			}
			itr.FlushAggregates() // emits the frame span, as LoadMRT does after its scan
			frameRecords = float64(fc.records)
			sts := core.NewShardedTupleStore(64)
			tr.call(root, "core.store_add", func() { replay(sts, views, nproc) })
			tr.call(root, "core.stitch", func() { ts = sts.Stitch(nproc) })
			tr.call(root, "core.annotate_orgs", func() { ts.AnnotateOrgs(orgs) })
			var obsSet *core.ObservationSet
			if err := tr.do(root, "core.observe", func(int) error {
				var err error
				obsSet, err = core.ObserveContext(ctx, ts, opts)
				return err
			}); err != nil {
				return err
			}
			if err := tr.do(root, "core.cluster_label", func(int) error {
				var err error
				inf, err = core.ClassifyObservedContext(ctx, obsSet, opts)
				return err
			}); err != nil {
				return err
			}
			var info bgpintent.SnapshotInfo
			tr.call(root, "core.snapshot_meta", func() { info = b.lastCorpus.SnapshotInfo(in.wl.name) })
			info.Created = snapshotCreated
			return tr.do(root, "core.snapshot_write", func(int) error {
				return writeFile(snapPath, func(w io.Writer) error { return b.lastResult.WriteSnapshotFlat(w, info) })
			})
		})
		if err != nil {
			return o, err
		}
		o.attempted++
		if !b.layeredMatches(ts, inf, snapPath) {
			o.failed++
		}
		tuples, clusters, largeClusters = float64(ts.Len()), float64(len(inf.Clusters)), float64(inf.LargeClusterCount())
		st, err := os.Stat(snapPath)
		if err != nil {
			return o, err
		}
		snapBytes = float64(st.Size())
	}
	vals["mrt.records"] = records
	vals["ingest.frame_records"] = frameRecords
	vals["core.views"] = float64(len(views))
	vals["core.tuples"] = tuples
	vals["core.tuple_yield"] = tuples / float64(max(len(views), 1))
	vals["core.clusters"] = clusters
	vals["core.large_clusters"] = largeClusters
	vals["core.snapshot_bytes"] = snapBytes
	return o, nil
}

// replay feeds the views into the store from workers goroutines, each
// taking a contiguous share.
func replay(sts *core.ShardedTupleStore, views []view, workers int) {
	var wg sync.WaitGroup
	per := max((len(views)+workers-1)/workers, 1)
	for lo := 0; lo < len(views); lo += per {
		part := views[lo:min(lo+per, len(views))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range part {
				v := &part[i]
				sts.AddViewLarge(v.vp, v.path, v.comms, v.larges)
			}
		}()
	}
	wg.Wait()
}

// layeredMatches reports whether the layer-by-layer pipeline built the
// oracle's corpus and result: equal tuple count, equal snapshot bytes
// from the layered inferences, and an unchanged snapshot from the
// facade's metadata and write calls.
func (b *batchOut) layeredMatches(ts *core.TupleStore, inf *core.Inferences, facadeSnap string) bool {
	if ts.Len() != b.lastCorpus.Tuples() {
		return false
	}
	i := b.lastInfo
	var buf bytes.Buffer
	meta := core.SnapshotMeta{
		CreatedUnix: i.Created.Unix(), Source: i.Source, Tuples: i.Tuples, Paths: i.Paths,
		VantagePoints: i.VantagePoints, Communities: i.Communities, LargeCommunities: i.LargeCommunities,
	}
	if core.WriteSnapshotFlat(&buf, inf, meta) != nil || !bytes.Equal(buf.Bytes(), b.refSnap) {
		return false
	}
	written, err := os.ReadFile(facadeSnap)
	return err == nil && bytes.Equal(written, b.refSnap)
}
