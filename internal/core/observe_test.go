package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bgpintent/internal/bgp"
)

// observeView is one generated observation for the observe oracle.
type observeView struct {
	vp     uint32
	path   []uint32
	comms  bgp.Communities
	larges bgp.LargeCommunities
}

// genObserveViews draws n views over a small ASN universe: community
// and large-community αs come both from path ASNs (on-path evidence)
// and from ASNs no path carries, lists repeat and carry duplicates, and
// paths repeat with different lists, so one path collects several
// tuples and the index builder has duplicate pairs to drop.
func genObserveViews(rng *rand.Rand, n int) []observeView {
	views := make([]observeView, n)
	for i := range views {
		path := make([]uint32, 1+rng.Intn(4))
		for j := range path {
			path[j] = uint32(1 + rng.Intn(40))
		}
		v := observeView{vp: uint32(1 + rng.Intn(12)), path: path}
		for j := rng.Intn(6); j > 0; j-- {
			alpha := uint16(1 + rng.Intn(50))
			v.comms = append(v.comms, bgp.NewCommunity(alpha, uint16(rng.Intn(20))))
		}
		if len(v.comms) > 0 && rng.Intn(8) == 0 {
			v.comms = append(v.comms, v.comms[0])
		}
		for j := rng.Intn(3) - 1; j > 0; j-- {
			v.larges = append(v.larges, bgp.LargeCommunity{
				GlobalAdmin: uint32(1 + rng.Intn(50)),
				LocalData1:  uint32(rng.Intn(2)),
				LocalData2:  uint32(rng.Intn(1 << uint(rng.Intn(32)))),
			})
		}
		views[i] = v
	}
	return views
}

// observeOracle recomputes observe's per-key counts the naive way:
// every view whose VP passes the filter adds its path (prepends
// collapsed, the store's path identity) to a set per community, and a path counts on-path when it holds α or, with orgs,
// an ASN of α's organization.
type observeOracle struct {
	stats      map[bgp.Community]CommunityStats
	largeStats map[bgp.LargeCommunity]LargeStats
	onPath     map[uint32]bool // ASNs on an observed path
}

func newObserveOracle(views []observeView, opts Options, dirty map[uint16]bool) observeOracle {
	pathASNs := make(map[string][]uint32)
	commPaths := make(map[bgp.Community]map[string]bool)
	largePaths := make(map[bgp.LargeCommunity]map[string]bool)
	o := observeOracle{onPath: make(map[uint32]bool)}
	for _, v := range views {
		if opts.VPFilter != nil && !opts.VPFilter[v.vp] {
			continue
		}
		key := fmt.Sprint(slices.Compact(slices.Clone(v.path))) // prepending collapses
		pathASNs[key] = v.path
		for _, asn := range v.path {
			o.onPath[asn] = true
		}
		for _, c := range v.comms {
			if dirty != nil && !dirty[c.ASN()] {
				continue
			}
			if commPaths[c] == nil {
				commPaths[c] = make(map[string]bool)
			}
			commPaths[c][key] = true
		}
		for _, lc := range v.larges {
			if largePaths[lc] == nil {
				largePaths[lc] = make(map[string]bool)
			}
			largePaths[lc][key] = true
		}
	}
	on := func(alpha uint32, path []uint32) bool {
		org, haveOrg := "", false
		if opts.Orgs != nil {
			org, haveOrg = opts.Orgs.Org(alpha)
		}
		for _, asn := range path {
			if asn == alpha {
				return true
			}
			if haveOrg {
				if o, ok := opts.Orgs.Org(asn); ok && o == org {
					return true
				}
			}
		}
		return false
	}
	o.stats = make(map[bgp.Community]CommunityStats)
	for c, paths := range commPaths {
		st := CommunityStats{Comm: c}
		for key := range paths {
			if on(uint32(c.ASN()), pathASNs[key]) {
				st.OnPath++
			} else {
				st.OffPath++
			}
		}
		o.stats[c] = st
	}
	o.largeStats = make(map[bgp.LargeCommunity]LargeStats)
	for lc, paths := range largePaths {
		st := LargeStats{Comm: lc}
		for key := range paths {
			if on(lc.GlobalAdmin, pathASNs[key]) {
				st.OnPath++
			} else {
				st.OffPath++
			}
		}
		o.largeStats[lc] = st
	}
	return o
}

// checkObserve compares one observe run with the oracle.
func checkObserve(ts *TupleStore, views []observeView, opts Options, dirty map[uint16]bool) error {
	got, err := observe(context.Background(), ts, opts, dirty)
	if err != nil {
		return err
	}
	want := newObserveOracle(views, opts, dirty)
	if len(got.Stats) != len(want.stats) {
		return fmt.Errorf("%d communities, want %d", len(got.Stats), len(want.stats))
	}
	for c, w := range want.stats {
		if g := got.Stats[c]; g == nil || *g != w {
			return fmt.Errorf("stats[%v] = %+v, want %+v", c, got.Stats[c], w)
		}
	}
	hasLarges := false
	for _, v := range views {
		hasLarges = hasLarges || len(v.larges) > 0
	}
	switch {
	case dirty != nil || !hasLarges:
		if got.LargeStats != nil {
			return fmt.Errorf("large stats computed: %d entries", len(got.LargeStats))
		}
	case len(got.LargeStats) != len(want.largeStats):
		return fmt.Errorf("%d large communities, want %d", len(got.LargeStats), len(want.largeStats))
	}
	if dirty == nil {
		for lc, w := range want.largeStats {
			if g := got.LargeStats[lc]; g == nil || *g != w {
				return fmt.Errorf("large stats[%v] = %+v, want %+v", lc, got.LargeStats[lc], w)
			}
		}
	}
	for asn := uint32(0); asn <= 60; asn++ {
		if got.asnOnPath[asn] != want.onPath[asn] {
			return fmt.Errorf("asn %d on path = %v, want %v", asn, got.asnOnPath[asn], want.onPath[asn])
		}
	}
	return nil
}

// observeStores loads views into a plain store, whose path IDs follow
// arrival order, and into a stitched sharded store, whose path IDs
// ascend in tuple order — the two index-builder branches.
func observeStores(views []observeView, orgs OrgMapper) (plain, stitched *TupleStore) {
	plain = NewTupleStore()
	sharded := NewShardedTupleStore(8)
	for _, v := range views {
		plain.AddViewLarge(v.vp, v.path, v.comms, v.larges)
		sharded.AddViewLarge(v.vp, v.path, v.comms, v.larges)
	}
	stitched = sharded.Stitch(2)
	if orgs != nil {
		plain.AnnotateOrgs(orgs)
		stitched.AnnotateOrgs(orgs)
	}
	return plain, stitched
}

func pathIDsAscend(ts *TupleStore) bool {
	return slices.IsSortedFunc(ts.Tuples(), func(a, b Tuple) int { return int(a.PathID - b.PathID) })
}

// observeVariants runs checkObserve over every option combination the
// builder branches on — VP filter, orgs, dirty α set — at workers 1, 2
// and 8, for both store kinds.
func observeVariants(views []observeView, rng *rand.Rand) error {
	orgs := testOrgs{}
	for asn := uint32(1); asn <= 60; asn++ {
		if rng.Intn(3) == 0 {
			orgs[asn] = fmt.Sprintf("org%d", asn%7)
		}
	}
	filter := map[uint32]bool{}
	for vp := uint32(1); vp <= 12; vp++ {
		if rng.Intn(2) == 0 {
			filter[vp] = true
		}
	}
	dirty := map[uint16]bool{}
	for a := uint16(1); a <= 50; a++ {
		if rng.Intn(3) == 0 {
			dirty[a] = true
		}
	}
	plainNoOrgs, stitchedNoOrgs := observeStores(views, nil)
	plainOrgs, stitchedOrgs := observeStores(views, orgs)
	for variant := 0; variant < 8; variant++ {
		opts := DefaultOptions()
		plain, stitched := plainNoOrgs, stitchedNoOrgs
		if variant&1 != 0 {
			opts.VPFilter = filter
		}
		if variant&2 != 0 {
			opts.Orgs = orgs
			plain, stitched = plainOrgs, stitchedOrgs
		}
		var d map[uint16]bool
		if variant&4 != 0 {
			d = dirty
		}
		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			for _, st := range []struct {
				name string
				ts   *TupleStore
			}{{"plain", plain}, {"stitched", stitched}} {
				if err := checkObserve(st.ts, views, opts, d); err != nil {
					return fmt.Errorf("%s store, filter=%v orgs=%v dirty=%v workers=%d: %w",
						st.name, opts.VPFilter != nil, opts.Orgs != nil, d != nil, workers, err)
				}
			}
		}
	}
	return nil
}

// TestObserveMatchesOracleQuick: observe's on/off counts for classic
// and large keys equal a naive map-of-path-sets recount, for plain and
// stitched stores, with and without VP filter, orgs and a dirty α set,
// at every worker count.
func TestObserveMatchesOracleQuick(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		views := genObserveViews(rng, int(size%600))
		if err := observeVariants(views, rng); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestObserveMatchesOracleParallel: the same check on a corpus big
// enough that the builder splits tuples across workers and its radix
// sort runs in parallel chunks, and whose plain store's path IDs do not
// ascend in tuple order while the stitched one's do.
func TestObserveMatchesOracleParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	views := genObserveViews(rng, 30000)
	plain, stitched := observeStores(views, nil)
	if plain.Len() < minParallelTuples {
		t.Fatalf("fixture too small: %d tuples", plain.Len())
	}
	if pathIDsAscend(plain) || !pathIDsAscend(stitched) {
		t.Fatalf("path IDs ascend: plain %v, stitched %v; want false, true", pathIDsAscend(plain), pathIDsAscend(stitched))
	}
	if err := observeVariants(views, rng); err != nil {
		t.Fatal(err)
	}
}

// sortCompactOracle is the distinct-values reference: sort, then drop
// adjacent duplicates.
func sortCompactOracle[T uint32 | bgp.Community](vals []T) []T {
	out := slices.Clone(vals)
	slices.Sort(out)
	return slices.Compact(out)
}

// checkStoreCounts compares Communities and VPSet with sort-and-compact
// over every tuple's lists.
func checkStoreCounts(t *testing.T, ts *TupleStore, label string) {
	t.Helper()
	var comms []bgp.Community
	var vps []uint32
	for i := range ts.Tuples() {
		tu := &ts.Tuples()[i]
		comms = append(comms, ts.TupleComms(tu)...)
		vps = append(vps, ts.TupleVPs(tu)...)
	}
	if got, want := ts.Communities(), sortCompactOracle(comms); !slices.Equal(got, want) {
		t.Fatalf("%s: Communities = %v, want %v", label, got, want)
	}
	if got, want := ts.VPSet(), sortCompactOracle(vps); !slices.Equal(got, want) {
		t.Fatalf("%s: VPSet = %v, want %v", label, got, want)
	}
}

// TestStoreCountsMatchOracle covers the edge shapes — empty store, one
// tuple, the top community and VP values, all-equal keys — and random
// stores, including one with enough community occurrences that the
// radix sort runs in parallel chunks.
func TestStoreCountsMatchOracle(t *testing.T) {
	checkStoreCounts(t, NewTupleStore(), "empty")
	if got := NewTupleStore().Communities(); len(got) != 0 {
		t.Fatalf("empty Communities = %v", got)
	}

	one := NewTupleStore()
	one.AddView(7, []uint32{7, 8}, bgp.Communities{bgp.NewCommunity(65535, 65535), bgp.NewCommunity(0, 0)})
	checkStoreCounts(t, one, "one tuple")

	top := NewTupleStore()
	for i := uint32(0); i < 50; i++ {
		top.AddView(^uint32(0)-i%3, []uint32{i + 1, 2}, bgp.Communities{bgp.NewCommunity(65535, 65535), bgp.NewCommunity(65535, uint16(i))})
	}
	checkStoreCounts(t, top, "top values")

	same := NewTupleStore()
	for i := uint32(0); i < 40000; i++ {
		same.AddView(3, []uint32{i + 1}, bgp.Communities{bgp.NewCommunity(100, 1)})
	}
	checkStoreCounts(t, same, "all-equal keys")

	rng := rand.New(rand.NewSource(5))
	big := NewTupleStore()
	for _, v := range genObserveViews(rng, 20000) {
		big.AddView(v.vp, v.path, v.comms)
	}
	checkStoreCounts(t, big, "random")

	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := NewTupleStore()
		for _, v := range genObserveViews(rng, int(size%300)) {
			ts.AddView(v.vp, v.path, v.comms)
		}
		checkStoreCounts(t, ts, fmt.Sprintf("seed %d", seed))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRadixSortMatchesStableSort: radixSort equals a stable sort on the
// sorted bits — the low half rides along in input order when lo is 32
// — for short and long inputs (both digit widths, one and several
// chunks) at every worker count.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, minParallelRadix + 17, radixWideMin + 3} {
		keys := make([]uint64, n)
		for i := range keys {
			switch i % 3 {
			case 0:
				keys[i] = rng.Uint64()
			case 1:
				keys[i] = uint64(rng.Intn(4))<<32 | uint64(rng.Intn(1000))
			default:
				keys[i] = ^uint64(0) - uint64(rng.Intn(2))
			}
		}
		for _, lo := range []uint{0, 32} {
			want := slices.Clone(keys)
			slices.SortStableFunc(want, func(a, b uint64) int {
				return cmp.Compare(a>>lo, b>>lo)
			})
			for _, workers := range []int{1, 2, 8} {
				got := radixSort(slices.Clone(keys), make([]uint64, n), lo, workers)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d lo=%d workers=%d: radix order differs from stable sort", n, lo, workers)
				}
			}
		}
		small := make([]uint32, n)
		for i, k := range keys {
			small[i] = uint32(k >> 16)
		}
		want := slices.Clone(small)
		slices.Sort(want)
		for _, workers := range []int{1, 2} {
			if got := radixSort(slices.Clone(small), make([]uint32, n), 0, workers); !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: uint32 radix order differs from sort", n, workers)
			}
		}
	}
}
