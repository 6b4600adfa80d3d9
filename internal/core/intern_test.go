package core

import (
	"slices"
	"sync"
	"testing"

	"bgpintent/internal/bgp"
)

// TestCommInternConcurrent hammers one intern table from many
// goroutines with overlapping community lists and verifies the exact-
// identity contract: every interning of the same canonical list, from
// any goroutine at any time, yields the same ref, and the ref resolves
// to the list's contents. Run under -race this also exercises the
// lock-free probe against concurrent inserts and table growth.
func TestCommInternConcurrent(t *testing.T) {
	const (
		goroutines = 8
		lists      = 3000 // overlapping across goroutines; forces several grows
		rounds     = 3
	)
	mk := func(i int) bgp.Communities {
		return bgp.Communities{
			bgp.NewCommunity(uint16(i%500), uint16(i)),
			bgp.NewCommunity(uint16(i%500)+1, uint16(i/2)),
		}.Canonical()
	}
	var ci commIntern
	refs := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			got := make([]uint64, lists)
			for r := 0; r < rounds; r++ {
				for i := 0; i < lists; i++ {
					// Each goroutine starts at its own position so inserts
					// interleave instead of racing on the same first list.
					j := (i + g*lists/goroutines) % lists
					ref := ci.intern(mk(j))
					if r == 0 && got[j] == 0 {
						got[j] = ref
					} else if got[j] != ref {
						t.Errorf("g%d list %d: ref changed %#x -> %#x", g, j, got[j], ref)
						return
					}
				}
			}
			refs[g] = got
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for g := 1; g < goroutines; g++ {
		for i := range refs[g] {
			if refs[g][i] != refs[0][i] {
				t.Fatalf("list %d: goroutines disagree on ref: %#x vs %#x", i, refs[0][i], refs[g][i])
			}
		}
	}
	for i := 0; i < lists; i++ {
		off, n := unpackRef(refs[0][i])
		if got, want := ci.view(off, n), mk(i); !slices.Equal(got, want) {
			t.Fatalf("list %d: view %v, want %v", i, got, want)
		}
	}
}

// TestCommInternEmptyList pins the empty-list convention: ref 0, never
// stored, resolving to an empty view.
func TestCommInternEmptyList(t *testing.T) {
	var ci commIntern
	if ref := ci.intern(nil); ref != 0 {
		t.Fatalf("intern(nil) = %#x, want 0", ref)
	}
	if ref := ci.intern(bgp.Communities{}); ref != 0 {
		t.Fatalf("intern(empty) = %#x, want 0", ref)
	}
	if v := ci.view(0, 0); len(v) != 0 {
		t.Fatalf("view of ref 0 = %v, want empty", v)
	}
}

// TestCommInternDupZeroAlloc guards the intern hot path: re-interning
// a list already in the table — the overwhelmingly common case at
// steady state — must not allocate.
func TestCommInternDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	var ci commIntern
	canon := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569)}
	want := ci.intern(canon)
	var ref uint64
	if avg := testing.AllocsPerRun(200, func() {
		ref = ci.intern(canon)
	}); avg != 0 {
		t.Errorf("duplicate intern allocates %.1f per run, want 0", avg)
	}
	if ref != want {
		t.Fatalf("duplicate intern returned %#x, want %#x", ref, want)
	}
}

// TestShardedAddViewDupZeroAlloc is the sharded-store counterpart of
// TestAddViewDuplicateHitZeroAlloc: with the shared intern table and
// ASN arena in the path, a duplicate observation must still be
// allocation-free end to end (path-key render, shard routing, intern
// probe, VP binary search).
func TestShardedAddViewDupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	sts := NewShardedTupleStore(8)
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	sts.AddView(65269, path, comms)
	// Pre-grow the VP list past the guarded runs so growVPs relocation
	// (amortized-free, not per-call-free) never fires under the meter.
	for vp := uint32(1); vp <= 64; vp++ {
		sts.AddView(vp, path, comms)
	}

	if avg := testing.AllocsPerRun(200, func() {
		sts.AddView(65269, path, comms)
	}); avg != 0 {
		t.Errorf("sharded AddView duplicate hit allocates %.1f per run, want 0", avg)
	}

	messy := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	if avg := testing.AllocsPerRun(200, func() {
		sts.AddView(65269, path, messy)
	}); avg != 0 {
		t.Errorf("sharded AddView with messy comms allocates %.1f per run, want 0", avg)
	}
}

// TestSharedArenaOffsets exercises chunk-boundary placement: lists that
// do not fit in the current chunk's tail start a fresh chunk, and every
// returned span resolves to the exact values appended.
func TestSharedArenaOffsets(t *testing.T) {
	var a sharedArena[uint32]
	type appended struct {
		off  uint32
		vals []uint32
	}
	var all []appended
	// Large appends force chunk turnover quickly (chunk = 1<<20 elems).
	big := make([]uint32, internChunkSize/2+1)
	for round := 0; round < 5; round++ {
		for i := range big {
			big[i] = uint32(round*len(big) + i)
		}
		vals := append([]uint32(nil), big...)
		all = append(all, appended{off: a.append(vals), vals: vals})
		small := []uint32{uint32(round), uint32(round + 1)}
		all = append(all, appended{off: a.append(small), vals: small})
	}
	for i, ap := range all {
		got := a.view(ap.off, uint32(len(ap.vals)))
		if len(got) != len(ap.vals) {
			t.Fatalf("append %d: view length %d, want %d", i, len(got), len(ap.vals))
		}
		for j := range got {
			if got[j] != ap.vals[j] {
				t.Fatalf("append %d: view[%d] = %d, want %d", i, j, got[j], ap.vals[j])
			}
		}
	}
}

// TestStitchStoreStillAcceptsViews pins the lazy reindex: a stitched
// store can keep ingesting (the live window path appends to a merged
// store), deduplicating against the stitched contents.
func TestStitchStoreStillAcceptsViews(t *testing.T) {
	sts := NewShardedTupleStore(4)
	for i := 0; i < 50; i++ {
		path := []uint32{uint32(100 + i%7), 7018, uint32(200 + i)}
		comms := bgp.Communities{bgp.NewCommunity(uint16(100+i%7), uint16(i))}
		sts.AddView(uint32(1+i%3), path, comms)
	}
	ts := sts.Stitch(2)
	nTuples, nPaths := ts.Len(), ts.PathCount()

	// Exact duplicate of an existing observation: nothing may grow.
	dupPath := []uint32{uint32(100), 7018, uint32(200)}
	dupComms := bgp.Communities{bgp.NewCommunity(100, 0)}
	ts.AddView(1, dupPath, dupComms)
	if ts.Len() != nTuples || ts.PathCount() != nPaths {
		t.Fatalf("duplicate AddView grew stitched store: %d/%d -> %d/%d",
			nTuples, nPaths, ts.Len(), ts.PathCount())
	}
	// New vantage point on the same tuple: tuple count stable.
	ts.AddView(99, dupPath, dupComms)
	if ts.Len() != nTuples {
		t.Fatalf("new-VP AddView grew tuple count: %d -> %d", nTuples, ts.Len())
	}
	// Genuinely new tuple and path.
	ts.AddView(1, []uint32{9999, 8888}, bgp.Communities{bgp.NewCommunity(9999, 1)})
	if ts.Len() != nTuples+1 || ts.PathCount() != nPaths+1 {
		t.Fatalf("new tuple not appended: %d/%d, want %d/%d",
			ts.Len(), ts.PathCount(), nTuples+1, nPaths+1)
	}
	if got := ts.LargeCommunityCount(); got != 0 {
		t.Fatalf("unexpected large communities: %d", got)
	}
}

// TestStitchWorkerCounts checks Stitch itself is deterministic in its
// own parallelism knob (the shards are fixed work items; only their
// processing interleaves).
func TestStitchWorkerCounts(t *testing.T) {
	build := func() *ShardedTupleStore {
		sts := NewShardedTupleStore(16)
		for i := 0; i < 400; i++ {
			path := []uint32{uint32(100 + i%31), uint32(1 + i%13), uint32(500 + i%97)}
			comms := bgp.Communities{
				bgp.NewCommunity(uint16(100+i%31), uint16(i%50)),
				bgp.NewCommunity(uint16(1+i%13), uint16(i%20)),
			}
			sts.AddView(uint32(1+i%9), path, comms)
		}
		return sts
	}
	ref := dumpStore(build().Stitch(1))
	for _, workers := range []int{2, 4, 8} {
		if got := dumpStore(build().Stitch(workers)); !slices.Equal(got, ref) {
			t.Fatalf("Stitch(%d) differs from Stitch(1)", workers)
		}
	}
}
