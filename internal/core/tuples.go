// Package core implements the paper's contribution: classifying BGP
// communities as action or information. The pipeline mirrors §5.2 —
// extract unique (AS path, communities) tuples from BGP data, cluster
// each AS's observed β values by a minimum gap, compute each cluster's
// on-path:off-path ratio, and label the cluster's communities.
package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"bgpintent/internal/bgp"
)

// span is an offset+length view into one of the store's arenas.
// Offsets are 32-bit: the paper-scale corpus (≈174M tuples) stays well
// under 4G entries per arena because each distinct community list and
// path is stored once.
type span struct {
	off, n uint32
}

// PathInfo is one interned AS path, viewed out of the store's arenas.
// The slices alias shared storage and must not be mutated.
type PathInfo struct {
	ASNs []uint32 // distinct ASNs on the path, in first-appearance order
	Orgs []string // distinct organizations of those ASNs (when mapped)
}

// pathMeta locates one interned path's ASNs and organizations in the
// store arenas.
type pathMeta struct {
	asns span
	orgs span
}

// Tuple is one unique (AS path, communities) observation. The
// communities and vantage points live in the store's shared arenas;
// read them through TupleStore.TupleComms and TupleStore.TupleVPs.
// Tuples are plain values in one flat slice — no per-tuple pointers,
// no per-tuple slice headers.
type Tuple struct {
	PathID int32
	comms  span
	// lcomms locates the tuple's canonical large-community list (RFC
	// 8092); the zero span means none. Large communities are part of
	// tuple identity: observations that differ only in their large
	// communities are distinct tuples.
	lcomms span
	// The VP list is the one per-tuple field that grows after creation,
	// so it carries a capacity: when full it relocates to the arena
	// tail with doubled capacity (amortized O(1), bounded dead space).
	vpOff, vpLen, vpCap uint32
}

// tupleKey is the fixed-size dedup key of one (path, communities,
// large communities) tuple: the interned path ID plus the exact intern
// ref of each canonical community list, so equal keys mean equal tuples
// and no content comparison is needed. Classic-only tuples carry
// largeRef 0, the empty list's ref.
type tupleKey struct {
	pathID   int32
	commsRef uint64
	largeRef uint64
}

// TupleStore interns AS paths and deduplicates (path, communities)
// tuples, the §4 data reduction (the paper extracts ≈174M such tuples
// from one week of RouteViews/RIS data).
//
// Storage is columnar (struct-of-arrays): tuples are one flat []Tuple,
// and their variable-length payloads — community lists, VP lists, path
// ASN sequences, path org lists — are offset+length views into arenas.
// The hot ingest path therefore allocates only when an arena or the
// flat slice grows, not per tuple.
type TupleStore struct {
	// shared holds the community intern tables and the path ASN arena.
	// A plain store owns its own; the shards of a ShardedTupleStore and
	// their stitched output share one, so spans are global and Stitch
	// moves no payload data.
	shared *storeShared

	paths    []pathMeta
	orgArena []string // all path org lists (filled by AnnotateOrgs)
	pathIDs  map[string]int32
	pathKeys []string // path ID -> binary path key (shares pathIDs' key storage)

	tuples  []Tuple
	vpArena []uint32 // all tuple VP lists (relocating; see Tuple)

	// tupleIdx maps a dedup key to its tuple. A stitched store leaves it
	// nil; the first AddView rebuilds it (see reindex).
	tupleIdx map[tupleKey]int32

	// large tracks the distinct large (96-bit) communities seen, for the
	// corpus statistics. The paper records their prevalence (11,524 vs
	// 88,982 regular in May 2023) and defers their classification; this
	// pipeline goes further and classifies them — large communities
	// attach to tuples (see AddViewLarge) and flow through the same
	// observe/cluster/classify stages as classic ones.
	large map[bgp.LargeCommunity]struct{}
}

// NewTupleStore returns an empty store over its own shared storage.
func NewTupleStore() *TupleStore { return newTupleStore(&storeShared{}) }

func newTupleStore(shared *storeShared) *TupleStore {
	return &TupleStore{
		shared:   shared,
		pathIDs:  make(map[string]int32),
		tupleIdx: make(map[tupleKey]int32),
		large:    make(map[bgp.LargeCommunity]struct{}),
	}
}

// NoteLarge records large communities in the distinct-large statistics
// without attaching them to a tuple — the path for observations whose
// AS path is empty or unusable. Views with a usable path should go
// through AddViewLarge, which both notes and classifies.
func (ts *TupleStore) NoteLarge(ls bgp.LargeCommunities) {
	for _, lc := range ls {
		ts.large[lc] = struct{}{}
	}
}

// LargeCommunityCount returns the number of distinct large communities
// noted.
func (ts *TupleStore) LargeCommunityCount() int { return len(ts.large) }

// appendPathKey renders a path (with prepending collapsed) to a compact
// binary key, appending to dst.
func appendPathKey(dst []byte, path []uint32) []byte {
	var prev uint32
	for i, asn := range path {
		if i > 0 && asn == prev {
			continue
		}
		prev = asn
		dst = binary.LittleEndian.AppendUint32(dst, asn)
	}
	return dst
}

// addScratch holds the per-AddView working buffers; pooled so the hot
// path allocates nothing when it hits existing paths and tuples.
type addScratch struct {
	key    []byte
	comms  bgp.Communities
	larges bgp.LargeCommunities // large-community canonicalization buffer
	flat   []uint32             // AS-path flattening buffer for AddViewASPath
	asns   []uint32             // distinct-ASN buffer for path interning
}

var addScratchPool = sync.Pool{New: func() any { return new(addScratch) }}

// canonicalInto writes the sorted, de-duplicated form of comms into dst
// (reusing its capacity) and returns it. Unlike Communities.Canonical it
// does not allocate fresh storage per call; community lists are short,
// so an insertion sort beats sort.Slice and its closure allocation.
func canonicalInto(dst, comms bgp.Communities) bgp.Communities {
	dst = append(dst[:0], comms...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	w := 0
	for i := range dst {
		if i == 0 || dst[i] != dst[i-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// canonicalLargeInto writes the sorted, de-duplicated form of ls into
// dst (reusing its capacity) and returns it — the large-community
// sibling of canonicalInto.
func canonicalLargeInto(dst, ls bgp.LargeCommunities) bgp.LargeCommunities {
	dst = append(dst[:0], ls...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Compare(dst[j-1]) < 0; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	w := 0
	for i := range dst {
		if i == 0 || dst[i] != dst[i-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// internPathKey returns the path ID for a path whose binary key has
// already been rendered, creating the entry if new. The key bytes are
// only copied to a string on insertion; lookups are allocation-free.
// The distinct-ASN sequence (AS paths are short, so the dedup scan
// beats a map) goes through pooled scratch into the shared ASN arena.
func (ts *TupleStore) internPathKey(key []byte, path []uint32, sc *addScratch) int32 {
	if id, ok := ts.pathIDs[string(key)]; ok {
		return id
	}
	id := int32(len(ts.paths))
	buf := sc.asns[:0]
	for _, asn := range path {
		if !containsASN(buf, asn) {
			buf = append(buf, asn)
		}
	}
	sc.asns = buf
	asns := span{off: ts.shared.asns.append(buf), n: uint32(len(buf))}
	skey := string(key)
	ts.paths = append(ts.paths, pathMeta{asns: asns})
	ts.pathIDs[skey] = id
	ts.pathKeys = append(ts.pathKeys, skey)
	return id
}

// AddView records one vantage-point observation without large
// communities; see AddViewLarge.
func (ts *TupleStore) AddView(vp uint32, path []uint32, comms bgp.Communities) {
	ts.AddViewLarge(vp, path, comms, nil)
}

// AddViewLarge records one vantage-point observation. Both community
// lists are canonicalized; observations differing only in VP collapse
// into one tuple, while the large communities are part of tuple
// identity. Paths and communities may be reused by the caller; the
// store copies what it keeps. Large communities are also noted in the
// distinct-large statistics, even when the path is empty and no tuple
// results.
func (ts *TupleStore) AddViewLarge(vp uint32, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities) {
	for _, lc := range larges {
		ts.large[lc] = struct{}{}
	}
	if len(path) == 0 {
		return
	}
	sc := addScratchPool.Get().(*addScratch)
	sc.key = appendPathKey(sc.key[:0], path)
	ts.addViewKeyed(vp, sc.key, path, comms, larges, sc)
	addScratchPool.Put(sc)
}

// addViewKeyed is AddViewLarge with the path key pre-rendered into
// sc.key; sc also carries the canonicalization scratch. Shared by the
// plain and sharded stores. Callers are responsible for noting larges
// in ts.large.
func (ts *TupleStore) addViewKeyed(vp uint32, key []byte, path []uint32, comms bgp.Communities, larges bgp.LargeCommunities, sc *addScratch) {
	if ts.tupleIdx == nil {
		ts.reindex()
	}
	id := ts.internPathKey(key, path, sc)
	sc.comms = canonicalInto(sc.comms, comms)
	sc.larges = canonicalLargeInto(sc.larges, larges)
	ref := ts.shared.comms.intern(sc.comms)
	lref := ts.shared.larges.intern(sc.larges)
	tk := tupleKey{pathID: id, commsRef: ref, largeRef: lref}
	if ti, ok := ts.tupleIdx[tk]; ok {
		ts.addVP(ti, vp)
		return
	}
	ts.tupleIdx[tk] = int32(len(ts.tuples))
	off, n := unpackRef(ref)
	loff, ln := unpackRef(lref)
	vpOff := uint32(len(ts.vpArena))
	ts.vpArena = append(ts.vpArena, vp)
	ts.tuples = append(ts.tuples, Tuple{
		PathID: id,
		comms:  span{off: off, n: n},
		lcomms: span{off: loff, n: ln},
		vpOff:  vpOff, vpLen: 1, vpCap: 1,
	})
}

// reindex rebuilds the lookup maps from the columnar data. A stitched
// store arrives with nil maps — readers never need them, and building
// them eagerly would put a serial map-construction pass back into the
// load path — so the first post-stitch AddView pays for them lazily.
func (ts *TupleStore) reindex() {
	ts.pathIDs = make(map[string]int32, len(ts.pathKeys))
	for i, key := range ts.pathKeys {
		ts.pathIDs[key] = int32(i)
	}
	ts.tupleIdx = make(map[tupleKey]int32, len(ts.tuples))
	for i := range ts.tuples {
		t := &ts.tuples[i]
		ts.tupleIdx[tupleKey{
			pathID:   t.PathID,
			commsRef: packRef(t.comms.off, t.comms.n),
			largeRef: packRef(t.lcomms.off, t.lcomms.n),
		}] = int32(i)
	}
	if ts.large == nil {
		ts.large = make(map[bgp.LargeCommunity]struct{})
	}
}

// addVP inserts vp into tuple ti's sorted VP list (no-op when present).
func (ts *TupleStore) addVP(ti int32, vp uint32) {
	t := &ts.tuples[ti]
	vps := ts.vpArena[t.vpOff : t.vpOff+t.vpLen]
	pos, found := slices.BinarySearch(vps, vp)
	if found {
		return
	}
	if t.vpLen == t.vpCap {
		ts.growVPs(t)
	}
	vps = ts.vpArena[t.vpOff : t.vpOff+t.vpLen+1]
	copy(vps[pos+1:], vps[pos:])
	vps[pos] = vp
	t.vpLen++
}

// growVPs doubles a tuple's VP capacity: in place when the tuple sits at
// the arena tail, otherwise by relocating it there. Each relocation
// doubles the capacity, so the dead space left behind stays bounded by
// the live data.
func (ts *TupleStore) growVPs(t *Tuple) {
	newCap := t.vpCap * 2
	if int(t.vpOff+t.vpCap) != len(ts.vpArena) {
		newOff := uint32(len(ts.vpArena))
		ts.vpArena = append(ts.vpArena, ts.vpArena[t.vpOff:t.vpOff+t.vpLen]...)
		t.vpOff = newOff
	}
	need := int(t.vpOff) + int(newCap)
	ts.vpArena = slices.Grow(ts.vpArena, need-len(ts.vpArena))[:need]
	t.vpCap = newCap
}

// Len returns the number of unique tuples.
func (ts *TupleStore) Len() int { return len(ts.tuples) }

// PathCount returns the number of interned unique paths.
func (ts *TupleStore) PathCount() int { return len(ts.paths) }

// Path returns the interned path info for a tuple's PathID. The
// returned views alias the store arenas; do not mutate them.
func (ts *TupleStore) Path(id int32) PathInfo {
	p := &ts.paths[id]
	return PathInfo{
		ASNs: ts.pathASNs(p),
		Orgs: ts.orgArena[p.orgs.off : p.orgs.off+p.orgs.n],
	}
}

// pathASNs resolves a path's distinct-ASN span in the shared arena.
func (ts *TupleStore) pathASNs(p *pathMeta) []uint32 {
	return ts.shared.asns.view(p.asns.off, p.asns.n)
}

// Tuples returns the flat tuple slice (shared storage; do not mutate).
// Iterate by index and resolve payloads through TupleComms/TupleVPs.
func (ts *TupleStore) Tuples() []Tuple { return ts.tuples }

// TupleComms returns a tuple's canonical community list (a view into
// the shared intern arena; do not mutate).
func (ts *TupleStore) TupleComms(t *Tuple) bgp.Communities {
	return ts.shared.comms.view(t.comms.off, t.comms.n)
}

// TupleLarges returns a tuple's canonical large-community list (a view
// into the shared intern arena; do not mutate). Nil for classic-only
// tuples.
func (ts *TupleStore) TupleLarges(t *Tuple) bgp.LargeCommunities {
	return ts.shared.larges.view(t.lcomms.off, t.lcomms.n)
}

// TupleVPs returns a tuple's sorted distinct vantage points (a view
// into the VP arena; do not mutate).
func (ts *TupleStore) TupleVPs(t *Tuple) []uint32 {
	return ts.vpArena[t.vpOff : t.vpOff+t.vpLen]
}

// VPSet returns the distinct vantage points across all tuples, sorted.
// VPs number in the dozens, so they go into a small sorted set rather
// than through a sort of every tuple's list; runs of tuples seen by the
// same VP take the repeat check and skip the search.
func (ts *TupleStore) VPSet() []uint32 {
	out := make([]uint32, 0, 64)
	var last uint32
	for i := range ts.tuples {
		for _, vp := range ts.TupleVPs(&ts.tuples[i]) {
			if len(out) > 0 && vp == last {
				continue
			}
			last = vp
			if pos, found := slices.BinarySearch(out, vp); !found {
				out = slices.Insert(out, pos, vp)
			}
		}
	}
	return out
}

// Communities returns the distinct communities across all tuples,
// sorted, by a radix sort of every tuple's list.
func (ts *TupleStore) Communities() []bgp.Community {
	n := 0
	for i := range ts.tuples {
		n += int(ts.tuples[i].comms.n)
	}
	out := make([]bgp.Community, 0, n)
	for i := range ts.tuples {
		out = append(out, ts.TupleComms(&ts.tuples[i])...)
	}
	out = radixSort(out, make([]bgp.Community, n), 0, ResolveWorkers(0))
	return slices.Compact(out)
}

// AllPaths returns every interned path's distinct-ASN sequence (views
// into shared storage; do not mutate). Suitable input for
// AS-relationship inference.
func (ts *TupleStore) AllPaths() [][]uint32 {
	out := make([][]uint32, len(ts.paths))
	for i := range ts.paths {
		out[i] = ts.pathASNs(&ts.paths[i])
	}
	return out
}

// OrgMapper resolves an ASN to its organization, the as2org sibling
// context (§4).
type OrgMapper interface {
	Org(asn uint32) (string, bool)
}

// AnnotateOrgs fills each interned path's organization list using the
// mapper. Call once after loading all data and before classification
// when sibling awareness is wanted.
func (ts *TupleStore) AnnotateOrgs(orgs OrgMapper) {
	ts.orgArena = ts.orgArena[:0]
	for i := range ts.paths {
		p := &ts.paths[i]
		off := uint32(len(ts.orgArena))
		for _, asn := range ts.pathASNs(p) {
			if org, ok := orgs.Org(asn); ok {
				if !containsOrg(ts.orgArena[off:], org) {
					ts.orgArena = append(ts.orgArena, org)
				}
			}
		}
		p.orgs = span{off: off, n: uint32(len(ts.orgArena)) - off}
	}
}
