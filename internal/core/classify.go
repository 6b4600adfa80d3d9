package core

import (
	"context"
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
	"bgpintent/internal/obs"
)

// Options configure the classifier. The defaults are the paper's
// operating point (§5.2, Fig. 9): a minimum gap of 140 between clusters
// and an on-path:off-path ratio threshold of 160:1.
type Options struct {
	// MinGap is the maximum distance between adjacent β values inside one
	// cluster; 0 disables clustering (each community considered alone).
	MinGap int

	// RatioThreshold is the on-path:off-path ratio at or above which a
	// mixed cluster is labeled information.
	RatioThreshold float64

	// Orgs enables sibling-aware on-path matching (as2org); nil disables
	// it.
	Orgs OrgMapper

	// VPFilter restricts the dataset to tuples observed by these vantage
	// points; nil means all.
	VPFilter map[uint32]bool

	// DisableExclusions classifies private-ASN and never-on-path
	// communities anyway (ablation).
	DisableExclusions bool

	// PooledRatio computes a cluster's ratio as sum(on)/sum(off) instead
	// of the paper's mean of per-community ratios (ablation).
	PooledRatio bool

	// Workers bounds the classifier's parallelism: 0 means one worker
	// per CPU (GOMAXPROCS), 1 forces sequential execution. Results are
	// identical for every worker count.
	Workers int

	// Tracer receives per-stage spans (observe, cluster, ratio,
	// classify) and carries the pprof stage labels; nil disables
	// telemetry but keeps the labels.
	Tracer *obs.Tracer
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{MinGap: 140, RatioThreshold: 160}
}

// ExcludeReason says why a community was left unclassified (§5.2).
type ExcludeReason int8

const (
	// ExcludeNone: the community was not excluded.
	ExcludeNone ExcludeReason = iota
	// ExcludePrivateASN: the α half is in the private/reserved 16-bit
	// ASN range, so no public AS can be identified.
	ExcludePrivateASN
	// ExcludeNeverOnPath: neither α nor any sibling appears in any AS
	// path (IXP route servers and other transparent taggers).
	ExcludeNeverOnPath
	// ExcludeUnobserved is never stored in Inferences.Excluded: Lookup
	// reports it for communities absent from the corpus.
	ExcludeUnobserved
)

// String names the reason for reports.
func (r ExcludeReason) String() string {
	switch r {
	case ExcludePrivateASN:
		return "private-asn"
	case ExcludeNeverOnPath:
		return "never-on-path"
	case ExcludeUnobserved:
		return "unobserved"
	default:
		return "none"
	}
}

// CommunityStats holds a community's unique-path observation counts.
type CommunityStats struct {
	Comm    bgp.Community
	OnPath  int // unique AS paths containing α (or a sibling)
	OffPath int // unique AS paths not containing it
}

// Ratio is the on-path:off-path ratio; with no off-path observations the
// denominator is clamped to one so the ratio stays finite (the paper
// handles never-off-path clusters by rule before ratios are consulted).
func (cs CommunityStats) Ratio() float64 {
	off := cs.OffPath
	if off == 0 {
		off = 1
	}
	return float64(cs.OnPath) / float64(off)
}

// Cluster is a contiguous range of one AS's β values with its inferred
// label.
type Cluster struct {
	Alpha   uint16
	Lo, Hi  uint16
	Members []CommunityStats

	// PureOnPath / PureOffPath mark clusters never observed off-path /
	// on-path; Ratio is meaningful for mixed clusters.
	PureOnPath  bool
	PureOffPath bool
	Ratio       float64

	Label dict.Category
}

// Inferences is the classifier output.
type Inferences struct {
	Labels   map[bgp.Community]dict.Category
	Clusters []Cluster
	Excluded map[bgp.Community]ExcludeReason
	Opts     Options

	// The large-community (RFC 8092) counterparts; empty for
	// classic-only corpora, in which case snapshots and reports are
	// byte-identical to a larges-unaware build.
	LargeLabels   map[bgp.LargeCommunity]dict.Category
	LargeClusters []LargeCluster
	LargeExcluded map[bgp.LargeCommunity]ExcludeReason

	// index maps every observed community — classified or excluded —
	// to its stats and (for classified ones) its cluster, backing
	// Lookup. Built by ClassifyObserved and ReadSnapshot; the structure
	// is immutable once built, so lookups need no locking. largeIndex
	// is its large-community sibling (nil when no larges were seen).
	index      map[bgp.Community]lookupEntry
	largeIndex map[bgp.LargeCommunity]largeLookupEntry
}

// lookupEntry is one observed community in the query index.
type lookupEntry struct {
	stats   CommunityStats
	cluster int32 // index into Clusters; -1 for excluded communities
}

// Category returns the inferred label of a community (CatUnknown when
// excluded or unobserved).
func (inf *Inferences) Category(c bgp.Community) dict.Category {
	return inf.Labels[c]
}

// Lookup is the full verdict for one community: not just the label but
// the evidence behind it and, when unclassified, the reason why.
type Lookup struct {
	Comm     bgp.Community
	Observed bool          // the community appeared in the corpus
	Category dict.Category // CatUnknown when excluded or unobserved
	Stats    CommunityStats
	Reason   ExcludeReason // ExcludeNone for classified communities
	Cluster  *Cluster      // nil when excluded or unobserved
}

// Lookup explains a community's verdict: its on/off-path evidence, the
// cluster that labeled it, or the exclusion reason (private-ASN α,
// never-on-path α, or simply unobserved). The returned Cluster aliases
// the Inferences and must not be mutated.
func (inf *Inferences) Lookup(c bgp.Community) Lookup {
	e, ok := inf.index[c]
	if !ok {
		return Lookup{Comm: c, Reason: ExcludeUnobserved}
	}
	l := Lookup{Comm: c, Observed: true, Stats: e.stats}
	if e.cluster >= 0 {
		l.Cluster = &inf.Clusters[e.cluster]
		l.Category = l.Cluster.Label
	} else {
		l.Reason = inf.Excluded[c]
	}
	return l
}

// Observed returns how many communities the index covers (classified
// plus excluded).
func (inf *Inferences) Observed() int { return len(inf.index) }

// buildIndex (re)derives the Lookup index from Clusters and the
// supplied per-community stats of excluded communities.
func (inf *Inferences) buildIndex(excludedStats map[bgp.Community]CommunityStats) {
	inf.index = make(map[bgp.Community]lookupEntry,
		len(inf.Labels)+len(inf.Excluded))
	for i := range inf.Clusters {
		for _, m := range inf.Clusters[i].Members {
			inf.index[m.Comm] = lookupEntry{stats: m, cluster: int32(i)}
		}
	}
	for c := range inf.Excluded {
		st := excludedStats[c]
		st.Comm = c
		inf.index[c] = lookupEntry{stats: st, cluster: -1}
	}
}

// Counts returns how many communities were inferred action and
// information.
func (inf *Inferences) Counts() (action, info int) {
	for _, cat := range inf.Labels {
		switch cat {
		case dict.CatAction:
			action++
		case dict.CatInformation:
			info++
		}
	}
	return action, info
}

// ObservationSet is the per-community measurement the classifier (and
// the evaluation's baseline-cluster analyses) build on.
type ObservationSet struct {
	Stats map[bgp.Community]*CommunityStats

	// LargeStats is the large-community counterpart; nil when the
	// corpus carries no large communities on any tuple.
	LargeStats map[bgp.LargeCommunity]*LargeStats

	asnOnPath map[uint32]bool
	orgOnPath map[string]bool
	orgs      OrgMapper
}

// AlphaOnPath reports whether α (or an org sibling) appears in any AS
// path of the observed dataset.
func (os *ObservationSet) AlphaOnPath(alpha uint32) bool {
	if os.asnOnPath[alpha] {
		return true
	}
	if os.orgs != nil {
		if org, ok := os.orgs.Org(alpha); ok && os.orgOnPath[org] {
			return true
		}
	}
	return false
}

// minParallelTuples is the tuple count below which Observe stays
// sequential; tiny inputs are not worth goroutine startup.
const minParallelTuples = 4096

// commIndex is a CSR (compressed-sparse-row) key→path index: row r
// covers key keys[r], whose sorted unique path IDs are
// paths[start[r]:start[r+1]]. Rows ascend by key. The classic pass keys
// rows by community; the large pass by a large community's rank in the
// sorted distinct-large set, so both come out in community order.
type commIndex struct {
	keys  []uint32
	start []int32
	paths []int32
}

// cancelCheckStride is how many loop iterations the classifier's inner
// loops run between cancellation probes: frequent enough that an abort
// is noticed within microseconds, rare enough to cost nothing.
const cancelCheckStride = 4096

// pairSource tells buildCommIndex which keys a tuple carries: size is
// an upper bound on their number, read without filtering, and emit
// appends each one as key<<32|pid to dst.
type pairSource struct {
	size func(t *Tuple) int
	emit func(dst []uint64, t *Tuple, pid uint64) []uint64
}

// buildCommIndex scans the tuples (honoring the VP filter) and returns
// the CSR key→path index plus a bitset of the path IDs observed. It
// runs in time linear in the (key, pathID) pairs: workers emit the
// pairs of contiguous tuple ranges into one exactly sized buffer, a
// stable radix sort orders them, and the CSR rows are cut from the
// sorted run with duplicates dropped inline. When the store's path IDs
// never decrease in tuple order — a stitched store is laid out in path
// order — the pairs already ascend by path within each key, so only
// the key bits are sorted. When done closes mid-build, workers stop
// early and the (partial) result must be discarded by the caller.
func buildCommIndex(ts *TupleStore, opts Options, workers int, done <-chan struct{}, src pairSource) (commIndex, bitset) {
	tuples := ts.Tuples()
	workers = max(min(workers, len(tuples)), 1)
	bounds := make([]int, workers+1)
	for w := range bounds {
		bounds[w] = w * len(tuples) / workers
	}

	// Size each worker's region of the pair buffer and check whether
	// the path IDs ascend in tuple order.
	offs := make([]int, workers+1)
	ascending := make([]bool, workers)
	ParallelFor(workers, workers, func(w int) {
		n, asc := 0, true
		for i := bounds[w]; i < bounds[w+1]; i++ {
			n += src.size(&tuples[i])
			asc = asc && (i == 0 || tuples[i].PathID >= tuples[i-1].PathID)
		}
		offs[w+1], ascending[w] = n, asc
	})
	pidsAscend := true
	for w := 0; w < workers; w++ {
		offs[w+1] += offs[w]
		pidsAscend = pidsAscend && ascending[w]
	}

	pairs := make([]uint64, offs[workers])
	ends := make([]int, workers)
	seenParts := make([]bitset, workers)
	ParallelFor(workers, workers, func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		dst := pairs[offs[w]:offs[w]:offs[w+1]]
		seen := newBitset(ts.PathCount())
		for i := lo; i < hi; i++ {
			if (i-lo)%cancelCheckStride == 0 && chClosed(done) {
				break
			}
			t := &tuples[i]
			if opts.VPFilter != nil && !anyVP(ts.TupleVPs(t), opts.VPFilter) {
				continue
			}
			pid := uint32(t.PathID)
			seen.set(pid)
			dst = src.emit(dst, t, uint64(pid))
		}
		ends[w] = offs[w] + len(dst)
		seenParts[w] = seen
	})
	pathSeen := seenParts[0]
	for _, p := range seenParts[1:] {
		pathSeen.union(p)
	}
	if chClosed(done) {
		return commIndex{}, pathSeen
	}

	// Close the gaps filtered tuples left between the workers' regions.
	n := ends[0]
	for w := 1; w < workers; w++ {
		n += copy(pairs[n:], pairs[offs[w]:ends[w]])
	}
	pairs = pairs[:n]
	lo := uint(0)
	if pidsAscend {
		lo = 32
	}
	return csrFromSorted(radixSort(pairs, make([]uint64, n), lo, workers), workers), pathSeen
}

// csrFromSorted cuts sorted key<<32|pid pairs into CSR rows, dropping
// duplicate pairs. Workers take contiguous ranges whose boundaries are
// moved forward to row starts, count their rows and unique pairs, and
// then fill disjoint regions of the output.
func csrFromSorted(pairs []uint64, workers int) commIndex {
	p := max(min(workers, len(pairs)/minParallelTuples), 1)
	bounds := make([]int, p+1)
	for w := 1; w < p; w++ {
		i := max(w*len(pairs)/p, bounds[w-1])
		for i > 0 && i < len(pairs) && pairs[i]>>32 == pairs[i-1]>>32 {
			i++
		}
		bounds[w] = i
	}
	bounds[p] = len(pairs)

	// rowOff/pathOff hold each range's row and path counts, then their
	// prefix sums.
	rowOff := make([]int, p+1)
	pathOff := make([]int, p+1)
	ParallelFor(p, p, func(w int) {
		rows, paths := 0, 0
		for i := bounds[w]; i < bounds[w+1]; i++ {
			if i == bounds[w] || pairs[i] != pairs[i-1] {
				paths++
				if i == bounds[w] || pairs[i]>>32 != pairs[i-1]>>32 {
					rows++
				}
			}
		}
		rowOff[w+1], pathOff[w+1] = rows, paths
	})
	for w := 0; w < p; w++ {
		rowOff[w+1] += rowOff[w]
		pathOff[w+1] += pathOff[w]
	}
	idx := commIndex{
		keys:  make([]uint32, rowOff[p]),
		start: make([]int32, rowOff[p]+1),
		paths: make([]int32, pathOff[p]),
	}
	ParallelFor(p, p, func(w int) {
		r, k := rowOff[w], pathOff[w]
		for i := bounds[w]; i < bounds[w+1]; i++ {
			if i > bounds[w] && pairs[i] == pairs[i-1] {
				continue
			}
			if i == bounds[w] || pairs[i]>>32 != pairs[i-1]>>32 {
				idx.keys[r] = uint32(pairs[i] >> 32)
				idx.start[r] = int32(k)
				r++
			}
			idx.paths[k] = int32(uint32(pairs[i]))
			k++
		}
	})
	idx.start[rowOff[p]] = int32(pathOff[p])
	return idx
}

// countRows counts, for every CSR row, the row's paths that carry the
// row's α (or an org sibling of it) and those that do not, and hands
// them to record; alphaOf maps a row key to its α. Rows are sorted and
// deduplicated, so each worker walks a contiguous row range and record
// calls for different rows may run concurrently.
func countRows(ts *TupleStore, idx commIndex, opts Options, workers int, done <-chan struct{}, alphaOf func(key uint32) uint32, record func(r, on, off int)) {
	parallelRanges(workers, len(idx.keys), func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			if (r-lo)%cancelCheckStride == 0 && chClosed(done) {
				return
			}
			alpha := alphaOf(idx.keys[r])
			var alphaOrg string
			var haveOrg bool
			if opts.Orgs != nil {
				alphaOrg, haveOrg = opts.Orgs.Org(alpha)
			}
			on, off := 0, 0
			for _, id := range idx.paths[idx.start[r]:idx.start[r+1]] {
				info := ts.Path(id)
				if containsASN(info.ASNs, alpha) || haveOrg && containsOrg(info.Orgs, alphaOrg) {
					on++
				} else {
					off++
				}
			}
			record(r, on, off)
		}
	})
}

// bitset is a fixed-size bitmap over dense IDs (path IDs here).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i uint32)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) get(i uint32) bool { return b[i/64]>>(i%64)&1 != 0 }

func (b bitset) union(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Observe computes per-community on/off-path statistics over unique AS
// paths, honoring the VP filter and sibling awareness in opts. With
// opts.Workers != 1 the two passes — tuple scanning and per-community
// path counting — are partitioned across a worker pool; results are
// identical to the sequential computation for every worker count.
func Observe(ts *TupleStore, opts Options) *ObservationSet {
	os, _ := ObserveContext(context.Background(), ts, opts)
	return os
}

// ObserveContext is Observe with cancellation and stage telemetry: the
// whole computation runs under a StageObserve span/pprof label, and a
// canceled ctx aborts between work chunks (bounded latency, no
// goroutine leaks — every worker is joined before return). On
// cancellation the returned set is nil and the error is ctx.Err().
func ObserveContext(ctx context.Context, ts *TupleStore, opts Options) (*ObservationSet, error) {
	var os *ObservationSet
	err := opts.Tracer.Stage(ctx, obs.StageObserve, "", func(s *obs.Span) {
		s.Tuples = int64(len(ts.Tuples()))
		if os != nil {
			s.Records = int64(len(os.Stats))
		}
	}, func(ctx context.Context) error {
		var err error
		os, err = observe(ctx, ts, opts, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return os, nil
}

// observe computes the observation set; a non-nil dirty set restricts
// the per-community stats to αs in it while keeping the global on-path
// ASN/org evidence complete (see ClassifyDelta).
func observe(ctx context.Context, ts *TupleStore, opts Options, dirty map[uint16]bool) (*ObservationSet, error) {
	os := &ObservationSet{
		asnOnPath: make(map[uint32]bool),
		orgOnPath: make(map[string]bool),
		orgs:      opts.Orgs,
	}
	done := ctx.Done()

	workers := ResolveWorkers(opts.Workers)
	if len(ts.Tuples()) < minParallelTuples {
		workers = 1
	}

	// Pass 1: build the CSR community→path index and the observed-path
	// bitset, then derive the on-path ASN/org sets from the distinct
	// observed paths (each path visited exactly once). A non-nil dirty
	// set restricts the index to communities whose α is in it (the
	// ClassifyDelta path); the bitset always covers every tuple, because
	// on-path exclusion evidence is global.
	idx, pathSeen := buildCommIndex(ts, opts, workers, done, pairSource{
		size: func(t *Tuple) int { return int(t.comms.n) },
		emit: func(dst []uint64, t *Tuple, pid uint64) []uint64 {
			for _, c := range ts.TupleComms(t) {
				if dirty == nil || dirty[c.ASN()] {
					dst = append(dst, uint64(c)<<32|pid)
				}
			}
			return dst
		},
	})
	if chClosed(done) {
		return nil, ctx.Err()
	}
	for pid := 0; pid < ts.PathCount(); pid++ {
		if pid%cancelCheckStride == 0 && chClosed(done) {
			return nil, ctx.Err()
		}
		if !pathSeen.get(uint32(pid)) {
			continue
		}
		info := ts.Path(int32(pid))
		for _, asn := range info.ASNs {
			os.asnOnPath[asn] = true
		}
		for _, org := range info.Orgs {
			os.orgOnPath[org] = true
		}
	}

	// Pass 2: count unique on/off-path appearances per community.
	statsArr := make([]CommunityStats, len(idx.keys))
	countRows(ts, idx, opts, workers, done,
		func(key uint32) uint32 { return uint32(bgp.Community(key).ASN()) },
		func(r, on, off int) {
			statsArr[r] = CommunityStats{Comm: bgp.Community(idx.keys[r]), OnPath: on, OffPath: off}
		})
	if chClosed(done) {
		return nil, ctx.Err()
	}
	os.Stats = make(map[bgp.Community]*CommunityStats, len(statsArr))
	for r := range statsArr {
		os.Stats[statsArr[r].Comm] = &statsArr[r]
	}

	// Pass 3 (large communities): only when some tuple carries them,
	// and never on the delta path — large dirty tracking does not exist,
	// so ClassifyDelta falls back to a full classification instead.
	if dirty == nil && ts.hasLargeTuples() {
		observeLarges(ts, opts, os, workers, done)
		if chClosed(done) {
			return nil, ctx.Err()
		}
	}
	return os, nil
}

// Classify runs the full §5.2 pipeline: observe, exclude, cluster per
// AS, label clusters by on-path:off-path ratio, and apply the labels to
// communities.
func Classify(ts *TupleStore, opts Options) *Inferences {
	inf, _ := ClassifyContext(context.Background(), ts, opts)
	return inf
}

// ClassifyContext is Classify with cancellation and stage telemetry:
// the observe/cluster/ratio/classify stages each run under their span
// and pprof label, and a canceled ctx aborts promptly with ctx.Err()
// (nil Inferences), with every worker goroutine joined before return.
func ClassifyContext(ctx context.Context, ts *TupleStore, opts Options) (*Inferences, error) {
	os, err := ObserveContext(ctx, ts, opts)
	if err != nil {
		return nil, err
	}
	return ClassifyObservedContext(ctx, os, opts)
}

// ClassifyObserved runs the pipeline on precomputed observations, so
// parameter sweeps (e.g. the Fig. 9 gap sweep) do not recount paths.
// The opts must use the same VPFilter and Orgs the observations were
// built with.
func ClassifyObserved(os *ObservationSet, opts Options) *Inferences {
	inf, _ := ClassifyObservedContext(context.Background(), os, opts)
	return inf
}

// ClassifyObservedContext is ClassifyObserved with cancellation and
// per-stage telemetry. The three stages match the paper's structure:
// cluster (group each α's βs by the gap rule, applying exclusions),
// ratio (purity/ratio evidence labels each cluster), classify (apply
// labels to members and build the lookup index). Output is identical to
// ClassifyObserved for every worker count.
func ClassifyObservedContext(ctx context.Context, os *ObservationSet, opts Options) (*Inferences, error) {
	inf := &Inferences{
		Labels:   make(map[bgp.Community]dict.Category),
		Excluded: make(map[bgp.Community]ExcludeReason),
		Opts:     opts,
	}
	done := ctx.Done()
	tr := opts.Tracer

	workers := ResolveWorkers(opts.Workers)

	// Stage: cluster. Group observed β values by α; each α clusters
	// independently. Workers take contiguous ranges of the sorted α list
	// and emit unlabeled clusters/exclusions in α order within their
	// range; concatenating the per-worker parts in worker order
	// reproduces the sequential output exactly.
	type alphaPart struct {
		clusters []Cluster
		excluded []excludedComm
	}
	var parts []alphaPart
	var largeExcl []excludedLarge
	err := tr.Stage(ctx, obs.StageCluster, "", func(s *obs.Span) {
		s.Records = int64(len(os.Stats) + len(os.LargeStats))
	}, func(ctx context.Context) error {
		if len(os.LargeStats) > 0 {
			inf.LargeClusters, largeExcl = clusterLarges(os, opts)
		}
		byAlpha := make(map[uint16][]uint16)
		for c := range os.Stats {
			byAlpha[c.ASN()] = append(byAlpha[c.ASN()], c.Value())
		}
		alphas := make([]uint16, 0, len(byAlpha))
		for a := range byAlpha {
			alphas = append(alphas, a)
		}
		slices.Sort(alphas)

		w := workers
		if len(alphas) < minParallelAlphas {
			w = 1
		}
		parts = make([]alphaPart, w)
		parallelRanges(w, len(alphas), func(w, lo, hi int) {
			var p alphaPart
			for n, alpha := range alphas[lo:hi] {
				if n%cancelCheckStride == 0 && chClosed(done) {
					return
				}
				betas := byAlpha[alpha]
				slices.Sort(betas)

				if !opts.DisableExclusions {
					var reason ExcludeReason
					switch {
					case bgp.NewCommunity(alpha, 0).IsPrivateASN():
						reason = ExcludePrivateASN
					case !os.AlphaOnPath(uint32(alpha)):
						reason = ExcludeNeverOnPath
					}
					if reason != 0 {
						for _, b := range betas {
							c := bgp.NewCommunity(alpha, b)
							p.excluded = append(p.excluded, excludedComm{c, reason, *os.Stats[c]})
						}
						continue
					}
				}

				for _, idx := range clusterIndexes(betas, opts.MinGap) {
					members := make([]CommunityStats, 0, idx[1]-idx[0])
					for _, b := range betas[idx[0]:idx[1]] {
						members = append(members, *os.Stats[bgp.NewCommunity(alpha, b)])
					}
					p.clusters = append(p.clusters, Cluster{
						Alpha:   alpha,
						Lo:      members[0].Comm.Value(),
						Hi:      members[len(members)-1].Comm.Value(),
						Members: members,
					})
				}
			}
			parts[w] = p
		})
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}

	// Stage: ratio. Label every cluster from its members' evidence —
	// a pure per-cluster function, so clusters are labeled in place on
	// the worker pool with no ordering concerns.
	excludedStats := make(map[bgp.Community]CommunityStats)
	largeExclStats := make(map[bgp.LargeCommunity]LargeStats)
	err = tr.Stage(ctx, obs.StageRatio, "", func(s *obs.Span) {
		s.Records = int64(len(inf.Clusters) + len(inf.LargeClusters))
	}, func(ctx context.Context) error {
		for _, p := range parts {
			for _, e := range p.excluded {
				inf.Excluded[e.comm] = e.reason
				excludedStats[e.comm] = e.stats
			}
			inf.Clusters = append(inf.Clusters, p.clusters...)
		}
		if len(largeExcl) > 0 {
			inf.LargeExcluded = make(map[bgp.LargeCommunity]ExcludeReason, len(largeExcl))
			for _, e := range largeExcl {
				inf.LargeExcluded[e.comm] = e.reason
				largeExclStats[e.comm] = e.stats
			}
		}
		if err := ParallelForContext(ctx, workers, len(inf.Clusters), func(i int) {
			labelCluster(&inf.Clusters[i], opts)
		}); err != nil {
			return err
		}
		return ParallelForContext(ctx, workers, len(inf.LargeClusters), func(i int) {
			labelLargeCluster(&inf.LargeClusters[i], opts)
		})
	})
	if err != nil {
		return nil, err
	}

	// Stage: classify. Apply cluster labels to member communities and
	// build the lookup index.
	err = tr.Stage(ctx, obs.StageClassify, "", func(s *obs.Span) {
		s.Records = int64(len(inf.Labels))
	}, func(ctx context.Context) error {
		for i := range inf.Clusters {
			if i%cancelCheckStride == 0 && chClosed(done) {
				return ctx.Err()
			}
			cl := &inf.Clusters[i]
			for _, m := range cl.Members {
				inf.Labels[m.Comm] = cl.Label
			}
		}
		if len(inf.LargeClusters) > 0 {
			inf.LargeLabels = make(map[bgp.LargeCommunity]dict.Category)
			for i := range inf.LargeClusters {
				cl := &inf.LargeClusters[i]
				for _, m := range cl.Members {
					inf.LargeLabels[m.Comm] = cl.Label
				}
			}
		}
		inf.buildIndex(excludedStats)
		inf.buildLargeIndex(largeExclStats)
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}
	return inf, nil
}

// minParallelAlphas is the α count below which ClassifyObserved stays
// sequential.
const minParallelAlphas = 64

// excludedComm is one exclusion decision carried from a classify worker
// to the merge, with the stats that back Lookup's explanation.
type excludedComm struct {
	comm   bgp.Community
	reason ExcludeReason
	stats  CommunityStats
}

// clusterIndexes splits a sorted value list into [start, end) cluster
// index pairs using the minimum-gap rule. Generic over the value
// width: classic clustering runs over 16-bit β values, large-community
// clustering over the 32-bit LocalData2 space, with identical gap
// semantics (so a classic corpus mirrored into α:fn:β clusters the
// same way).
func clusterIndexes[T uint16 | uint32](vals []T, minGap int) [][2]int {
	var out [][2]int
	start := 0
	for i := 1; i <= len(vals); i++ {
		if i == len(vals) || int(vals[i])-int(vals[i-1]) > minGap {
			out = append(out, [2]int{start, i})
			start = i
		}
	}
	return out
}

// decideLabel is the §5.2 decision rule shared by the classic and
// large labelers: never off-path or ratio at/above threshold ->
// information; always off-path or ratio below -> action. The
// mixed-cluster ratio is the mean of the member ratios (or the pooled
// ratio under the ablation option).
func decideLabel(onTotal, offTotal int, ratioSum float64, members int, opts Options) (pureOn, pureOff bool, ratio float64, label dict.Category) {
	pureOn = offTotal == 0
	pureOff = onTotal == 0
	if opts.PooledRatio {
		off := offTotal
		if off == 0 {
			off = 1
		}
		ratio = float64(onTotal) / float64(off)
	} else {
		ratio = ratioSum / float64(members)
	}
	switch {
	case pureOn:
		label = dict.CatInformation
	case pureOff:
		label = dict.CatAction
	case ratio >= opts.RatioThreshold:
		label = dict.CatInformation
	default:
		label = dict.CatAction
	}
	return pureOn, pureOff, ratio, label
}

// labelCluster applies the decision rule to a classic cluster in place.
func labelCluster(cl *Cluster, opts Options) {
	onTotal, offTotal := 0, 0
	ratioSum := 0.0
	for _, m := range cl.Members {
		onTotal += m.OnPath
		offTotal += m.OffPath
		ratioSum += m.Ratio()
	}
	cl.PureOnPath, cl.PureOffPath, cl.Ratio, cl.Label =
		decideLabel(onTotal, offTotal, ratioSum, len(cl.Members), opts)
}

func anyVP(vps []uint32, filter map[uint32]bool) bool {
	for _, vp := range vps {
		if filter[vp] {
			return true
		}
	}
	return false
}

func containsASN(asns []uint32, asn uint32) bool {
	for _, a := range asns {
		if a == asn {
			return true
		}
	}
	return false
}

func containsOrg(orgs []string, org string) bool {
	for _, o := range orgs {
		if o == org {
			return true
		}
	}
	return false
}
