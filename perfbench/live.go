package main

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"time"

	"bgpintent/internal/core"
	"bgpintent/internal/dict"
	"bgpintent/internal/stream"
)

type liveOut struct {
	ops
	setups []float64 // s, stream.Start → first published snapshot, per repetition
	rates  []float64 // updates/s per snapshot tick
	fresh  []float64 // ms, every snapshot after the first of each repetition
	reps   int

	src      *stream.SimSource
	n        int // updates per repetition
	perRound int // repetitions per round
	win      stream.WindowConfig
	every    int
	// last is the final repetition's applied updates and published
	// result, replayed by the traced pass.
	lastUpdates []stream.Update
	lastFinal   *core.Inferences
}

// cappedSource ends a feed after n updates, so every repetition does the
// same work and ends with a final published snapshot.
type cappedSource struct {
	stream.Source
	n uint64
}

func (c cappedSource) Connect(ctx context.Context, after uint64) (stream.Session, error) {
	s, err := c.Source.Connect(ctx, after)
	return cappedSession{Session: s, n: c.n}, err
}

type cappedSession struct {
	stream.Session
	n uint64
}

func (s cappedSession) Recv(ctx context.Context) (stream.Update, error) {
	u, err := s.Session.Recv(ctx)
	if err == nil && u.Seq > s.n {
		return stream.Update{}, io.EOF
	}
	return u, err
}

// liveRep is what one repetition observed.
type liveRep struct {
	setup time.Duration
	// rates are updates per second between consecutive snapshots, the
	// reclassification of the earlier one included.
	rates   []float64
	fresh   []float64
	updates []stream.Update
	final   *core.Inferences
}

// newLive simulates the feed's day, untimed, and sizes the
// repetitions: each feeds n updates, and the rounds together take at
// least minFreshSamples freshness samples.
func newLive(ctx context.Context, in *inputs, sc scale, rounds int) (*liveOut, error) {
	out := &liveOut{
		win:   stream.WindowConfig{Span: sc.windowSpan, Buckets: sc.windowBuckets},
		every: sc.snapshotEvery,
	}
	if out.every == 0 {
		out.every = stream.DefaultSnapshotEvery
	}
	out.n = sc.liveUpdates / out.every * out.every // end on a snapshot tick
	perRep := out.n/out.every - 1                  // samples: every snapshot after the first
	if perRep < 1 {
		return nil, fmt.Errorf("%d live updates make fewer than two snapshots", sc.liveUpdates)
	}
	out.perRound = (minFreshSamples + perRep*rounds - 1) / (perRep * rounds)
	out.src = stream.NewSimSource(in.sim, stream.SimConfig{Days: 1})
	sess, err := out.src.Connect(ctx, 0)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	_, err = sess.Recv(ctx)
	return out, err
}

// round runs the round's repetitions and checks each against a full
// classification.
func (out *liveOut) round(ctx context.Context, inject bool) error {
	for i := 0; i < out.perRound; i++ {
		rep, err := out.rep(ctx)
		out.reps++
		out.attempted++
		if err != nil {
			return err
		}
		out.setups = append(out.setups, rep.setup.Seconds())
		out.rates = append(out.rates, rep.rates...)
		out.fresh = append(out.fresh, rep.fresh...)
		if !out.converged(ctx, rep, inject) {
			out.failed++
		}
		out.lastUpdates, out.lastFinal = rep.updates, rep.final
	}
	return nil
}

// rep feeds out.n updates through a fresh Ingestor as fast as it reads
// them. Freshness of a snapshot is its publication time minus the
// apply time of the last update it covers.
func (out *liveOut) rep(ctx context.Context) (liveRep, error) {
	n := out.n
	applied := make([]time.Time, n+1)
	updates := make([]stream.Update, 0, n)
	type snap struct {
		at  time.Time
		seq uint64
	}
	var snaps []snap
	var final *core.Inferences
	start := time.Now()
	in, err := stream.Start(ctx, stream.Config{
		Source:        cappedSource{Source: out.src, n: uint64(n)},
		Window:        out.win,
		Classify:      core.DefaultOptions(),
		SnapshotEvery: out.every,
		OnUpdate: func(u stream.Update) {
			applied[u.Seq] = time.Now()
			updates = append(updates, u)
		},
		OnSnapshot: func(inf *core.Inferences, _ stream.WindowStats, seq uint64) {
			snaps = append(snaps, snap{at: time.Now(), seq: seq})
			final = inf
		},
	})
	if err != nil {
		return liveRep{}, err
	}
	if err := in.Wait(); err != nil {
		return liveRep{}, err
	}
	if len(snaps) < 2 || snaps[len(snaps)-1].seq != uint64(n) || len(updates) != n {
		return liveRep{}, fmt.Errorf("feed of %d updates applied %d and published %d snapshots", n, len(updates), len(snaps))
	}
	rep := liveRep{setup: snaps[0].at.Sub(start), updates: updates, final: final}
	for i, s := range snaps[1:] {
		rep.rates = append(rep.rates, float64(s.seq-snaps[i].seq)/s.at.Sub(snaps[i].at).Seconds())
		rep.fresh = append(rep.fresh, float64(s.at.Sub(applied[s.seq]).Nanoseconds())/1e6)
	}
	return rep, nil
}

// converged reports whether the last published result equals a full
// classification of the window rebuilt from the applied updates.
func (out *liveOut) converged(ctx context.Context, rep liveRep, inject bool) bool {
	w := stream.NewWindow(out.win)
	for _, u := range rep.updates {
		w.Add(u)
	}
	want, err := core.ClassifyContext(ctx, w.Store(), core.DefaultOptions())
	if err != nil {
		return false
	}
	if inject {
		for c, cat := range want.Labels {
			want.Labels[c] = dict.CatAction
			if cat == dict.CatAction {
				want.Labels[c] = dict.CatInformation
			}
			break
		}
	}
	return sameInferences(rep.final, want)
}

func sameInferences(a, b *core.Inferences) bool {
	return reflect.DeepEqual(a.Labels, b.Labels) &&
		reflect.DeepEqual(a.Excluded, b.Excluded) &&
		reflect.DeepEqual(a.Clusters, b.Clusters)
}

// traceLive replays the last repetition's updates into a fresh window,
// timing window adds and the delta reclassification of every snapshot
// tick separately.
func traceLive(ctx context.Context, tr *tracer, l *liveOut, vals map[string]float64) (ops, error) {
	o := ops{attempted: 1}
	var deltas, fracs []float64
	w := stream.NewWindow(l.win)
	opts := core.DefaultOptions()
	var prev *core.Inferences
	err := tr.do(0, "live.pass", func(root int) error {
		for lo := 0; lo < len(l.lastUpdates); lo += l.every {
			chunk := l.lastUpdates[lo:min(lo+l.every, len(l.lastUpdates))]
			if err := tr.do(root, "stream.window_add", func(int) error {
				for _, u := range chunk {
					w.Add(u)
				}
				return nil
			}); err != nil {
				return err
			}
			dirty := w.TakeDirty()
			fracs = append(fracs, dirtyShare(dirty, w.Store()))
			name := "core.classify_delta"
			if prev == nil {
				name = "core.classify_first" // no previous result: a full classification
			}
			t0 := time.Now()
			if err := tr.do(root, name, func(int) error {
				inf, err := core.ClassifyDelta(ctx, w.Store(), opts, prev, dirty)
				prev = inf
				return err
			}); err != nil {
				return err
			}
			if name == "core.classify_delta" {
				deltas = append(deltas, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	if !sameInferences(prev, l.lastFinal) {
		o.failed++
	}
	vals["stream.delta_ms_p50"] = median(deltas)
	vals["stream.dirty_alpha_frac"] = mean(fracs)
	vals["stream.evicted"] = float64(w.Stats().Evicted)
	return o, nil
}

// dirtyShare is the fraction of the store's community αs that a tick
// reclassifies.
func dirtyShare(dirty map[uint16]bool, ts *core.TupleStore) float64 {
	all := make(map[uint16]bool)
	n := 0
	for _, c := range ts.Communities() {
		if a := c.ASN(); !all[a] {
			all[a] = true
			if dirty[a] {
				n++
			}
		}
	}
	return float64(n) / float64(max(len(all), 1))
}
