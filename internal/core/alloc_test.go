package core

import (
	"runtime"
	"testing"

	"bgpintent/internal/bgp"
	"bgpintent/internal/simulate"
	"bgpintent/internal/topology"
)

// TestAddViewDuplicateHitZeroAlloc guards the arena layout's core
// promise: once a (path, communities) tuple exists, re-observing it —
// even from a new vantage point with room in the VP list — allocates
// nothing. A regression here silently reintroduces the per-view churn
// the columnar store exists to eliminate.
func TestAddViewDuplicateHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops items; alloc counts are noise")
	}
	ts := NewTupleStore()
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	ts.AddView(65269, path, comms)
	// Pre-grow the VP list so the guarded runs never trip a growVPs
	// relocation (growth is amortized-free, not per-call-free).
	for vp := uint32(1); vp <= 64; vp++ {
		ts.AddView(vp, path, comms)
	}

	if avg := testing.AllocsPerRun(200, func() {
		ts.AddView(65269, path, comms) // exact duplicate: VP already present
	}); avg != 0 {
		t.Errorf("AddView duplicate hit allocates %.1f per run, want 0", avg)
	}

	// Unsorted/duplicated community input still canonicalizes into the
	// pooled scratch without allocating.
	messy := bgp.Communities{bgp.NewCommunity(1299, 100), bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	if avg := testing.AllocsPerRun(200, func() {
		ts.AddView(65269, path, messy)
	}); avg != 0 {
		t.Errorf("AddView with messy comms allocates %.1f per run, want 0", avg)
	}
}

// TestTupleStoreFootprint guards the small end of the shared storage:
// a plain store holding one view must not pay for full-size arena
// chunks (three of them would be about 20 MiB). The arenas start small
// and double, so one view costs a few intern-table slots and chunks.
func TestTupleStoreFootprint(t *testing.T) {
	const runs = 20
	path := []uint32{65269, 7018, 1299, 64496}
	comms := bgp.Communities{bgp.NewCommunity(1299, 2569), bgp.NewCommunity(1299, 100)}
	larges := bgp.LargeCommunities{{GlobalAdmin: 1299, LocalData1: 1, LocalData2: 100}}
	stores := make([]*TupleStore, runs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range stores {
		stores[i] = NewTupleStore()
		stores[i].AddViewLarge(65269, path, comms, larges)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(stores)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("a store holding one view allocates %d bytes, want < %d", per, 64<<10)
	} else {
		t.Logf("a store holding one view allocates %d bytes", per)
	}
}

// TestLookupZeroAlloc guards the serving hot path: Inferences.Lookup is
// called per query by intentd and must stay allocation-free.
func TestLookupZeroAlloc(t *testing.T) {
	topo, err := topology.Generate(topology.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate.New(topo, simulate.TinyConfig())
	ts := NewTupleStore()
	for _, v := range sim.RunDay(0).Views {
		ts.AddView(v.VP, v.Path, v.Comms)
	}
	inf := Classify(ts, DefaultOptions())
	comms := ts.Communities()
	if len(comms) == 0 {
		t.Fatal("no communities in corpus")
	}
	unobserved := bgp.NewCommunity(64999, 64999)
	var sink Lookup
	if avg := testing.AllocsPerRun(200, func() {
		for _, c := range comms {
			sink = inf.Lookup(c)
		}
		sink = inf.Lookup(unobserved)
	}); avg != 0 {
		t.Errorf("Lookup allocates %.2f per run, want 0", avg)
	}
	_ = sink
}
