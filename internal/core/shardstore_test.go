package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
)

// synthView is one generated observation for store tests.
type synthView struct {
	vp    uint32
	path  []uint32
	comms bgp.Communities
	large bgp.LargeCommunities
	// attach routes the larges into tuple identity via AddViewLarge;
	// otherwise they are only noted (the empty-path statistics route).
	attach bool
}

// addSynth feeds one generated view to a plain or sharded store.
func addSynth(s interface {
	AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities)
	AddView(vp uint32, path []uint32, comms bgp.Communities)
	NoteLarge(bgp.LargeCommunities)
}, v synthView) {
	if v.attach {
		s.AddViewLarge(v.vp, v.path, v.comms, v.large)
		return
	}
	s.AddView(v.vp, v.path, v.comms)
	s.NoteLarge(v.large)
}

// genViews builds a deterministic stream of views with heavy path and
// tuple reuse, prepending, duplicate communities, and some large
// communities, half of them attached to their tuples — the shapes
// AddView has to canonicalize.
func genViews(seed int64, n int) []synthView {
	rng := rand.New(rand.NewSource(seed))
	views := make([]synthView, n)
	for i := range views {
		pathLen := 2 + rng.Intn(4)
		path := make([]uint32, 0, pathLen+2)
		for j := 0; j < pathLen; j++ {
			asn := uint32(100 + rng.Intn(400))
			path = append(path, asn)
			if rng.Intn(5) == 0 { // prepend
				path = append(path, asn)
			}
		}
		nc := rng.Intn(4)
		comms := make(bgp.Communities, 0, nc+1)
		for j := 0; j < nc; j++ {
			c := bgp.NewCommunity(uint16(100+rng.Intn(50)), uint16(rng.Intn(300)))
			comms = append(comms, c)
			if rng.Intn(6) == 0 { // duplicate
				comms = append(comms, c)
			}
		}
		v := synthView{vp: uint32(1 + rng.Intn(30)), path: path, comms: comms}
		if rng.Intn(10) == 0 {
			v.large = bgp.LargeCommunities{{GlobalAdmin: uint32(rng.Intn(5)), LocalData1: 1, LocalData2: uint32(rng.Intn(3))}}
			if rng.Intn(3) == 0 { // a second large, possibly unsorted or duplicate
				v.large = append(v.large, bgp.LargeCommunity{GlobalAdmin: uint32(rng.Intn(5)), LocalData1: 1, LocalData2: uint32(rng.Intn(3))})
			}
			v.attach = i%2 == 0
		}
		views[i] = v
	}
	return views
}

// dumpStore renders a store's full logical content in canonical order:
// one line per tuple with the path key, the communities, the large
// communities and the VPs, plus the distinct-large set.
func dumpStore(ts *TupleStore) []string {
	lines := make([]string, 0, len(ts.tuples)+len(ts.large))
	for i := range ts.tuples {
		t := &ts.tuples[i]
		lines = append(lines, fmt.Sprintf("t %x %v %v %v %v", ts.pathKeys[t.PathID], ts.Path(t.PathID).ASNs, ts.TupleComms(t), ts.TupleLarges(t), ts.TupleVPs(t)))
	}
	larges := make([]string, 0, len(ts.large))
	for lc := range ts.large {
		larges = append(larges, "l "+lc.String())
	}
	sortStrings(larges)
	return append(lines, larges...)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// sortedDump is dumpStore with the tuple lines also sorted, for
// comparing stores that may order tuples differently (sequential
// insertion order vs canonical merge order).
func sortedDump(ts *TupleStore) []string {
	d := dumpStore(ts)
	sortStrings(d)
	return d
}

func equalDumps(t *testing.T, a, b []string, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d lines vs %d lines", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: line %d differs:\n  %s\n  %s", label, i, a[i], b[i])
		}
	}
}

// TestShardedMergeMatchesSequential: the merged sharded store holds
// exactly the tuples (large-keyed ones included), paths, VPs and large
// communities of a sequential TupleStore fed the same views, for
// several shard counts.
func TestShardedMergeMatchesSequential(t *testing.T) {
	views := genViews(1, 5000)
	seq := NewTupleStore()
	for _, v := range views {
		addSynth(seq, v)
	}
	largeTuples := 0
	for i := range seq.tuples {
		if len(seq.TupleLarges(&seq.tuples[i])) > 0 {
			largeTuples++
		}
	}
	if largeTuples == 0 {
		t.Fatal("fixture attaches no large communities to tuples")
	}
	for _, shards := range []int{1, 2, 7, 64} {
		sts := NewShardedTupleStore(shards)
		for _, v := range views {
			addSynth(sts, v)
		}
		if got, want := sts.Len(), seq.Len(); got != want {
			t.Fatalf("shards=%d: Len=%d, want %d", shards, got, want)
		}
		// Stitch with default parallelism and with a worker count that
		// differs from the shard count.
		workers := 3
		if shards%2 == 1 {
			workers = 0
		}
		merged := sts.Stitch(workers)
		if merged.PathCount() != seq.PathCount() {
			t.Fatalf("shards=%d: PathCount=%d, want %d", shards, merged.PathCount(), seq.PathCount())
		}
		if merged.LargeCommunityCount() != seq.LargeCommunityCount() {
			t.Fatalf("shards=%d: LargeCommunityCount=%d, want %d", shards, merged.LargeCommunityCount(), seq.LargeCommunityCount())
		}
		equalDumps(t, sortedDump(merged), sortedDump(seq), fmt.Sprintf("shards=%d vs sequential", shards))
	}
}

// TestShardedMergeDeterministic: the merged store is byte-identical —
// including path-ID assignment and tuple order — no matter how many
// goroutines fed it or in what order the views arrived.
func TestShardedMergeDeterministic(t *testing.T) {
	views := genViews(2, 4000)
	var reference []string
	for _, writers := range []int{1, 2, 8} {
		sts := NewShardedTupleStore(16)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Stripe the views so each goroutine interleaves over the
				// whole range, maximizing cross-shard contention.
				for i := w; i < len(views); i += writers {
					addSynth(sts, views[i])
				}
			}(w)
		}
		wg.Wait()
		// Stitch with as many workers as writers: determinism must hold
		// across both the feeding and the stitching parallelism.
		dump := dumpStore(sts.Stitch(writers))
		if reference == nil {
			reference = dump
			continue
		}
		equalDumps(t, dump, reference, fmt.Sprintf("writers=%d vs writers=1", writers))
	}
}

// TestShardedStoreRace hammers one store from many goroutines; run
// under -race it proves the locking is sound.
func TestShardedStoreRace(t *testing.T) {
	views := genViews(3, 2000)
	sts := NewShardedTupleStore(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(views); i += 8 {
				addSynth(sts, views[i])
			}
		}(w)
	}
	// Concurrent readers of the aggregate length.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = sts.Len()
			}
		}()
	}
	wg.Wait()
	if sts.Len() == 0 {
		t.Fatal("store empty after concurrent load")
	}
}

// TestShardCountsRounding: shard counts round up to powers of two and
// degenerate inputs still work.
func TestShardCountsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-1, 1}, {0, 1}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		if got := NewShardedTupleStore(tc.in).Shards(); got != tc.want {
			t.Errorf("NewShardedTupleStore(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}
