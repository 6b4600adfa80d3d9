// Large-community classification: the RFC 8092 sibling of the §5.2
// pipeline. Large communities carry an explicit (α, fn, value) triple,
// so the clustering groups by (GlobalAdmin, LocalData1) — the AS and
// its function selector — and applies the gap rule over the 32-bit
// LocalData2 value space. The evidence model is unchanged: on-path
// means the global administrator (or an org sibling) appears in the AS
// path, and the purity/ratio decision rule is shared with the classic
// classifier, so a large community α:fn:β mirroring a classic α:β sees
// the same verdict when its observations match.
package core

import (
	"slices"

	"bgpintent/internal/bgp"
	"bgpintent/internal/dict"
)

// LargeStats holds a large community's unique-path observation counts.
// It is the RFC 8092 counterpart of CommunityStats (a separate type:
// CommunityStats is wired into the gob'd v1 snapshot body and must not
// change shape).
type LargeStats struct {
	Comm    bgp.LargeCommunity
	OnPath  int // unique AS paths containing the global admin (or a sibling)
	OffPath int // unique AS paths not containing it
}

// Ratio is the on-path:off-path ratio with the zero denominator clamped
// to one; see CommunityStats.Ratio.
func (ls LargeStats) Ratio() float64 {
	off := ls.OffPath
	if off == 0 {
		off = 1
	}
	return float64(ls.OnPath) / float64(off)
}

// LargeCluster is a contiguous range of one (α, fn) group's values with
// its inferred label. Lo/Hi bound LocalData2; all members share
// Alpha (GlobalAdmin) and Fn (LocalData1).
type LargeCluster struct {
	Alpha   uint32
	Fn      uint32
	Lo, Hi  uint32
	Members []LargeStats

	PureOnPath  bool
	PureOffPath bool
	Ratio       float64

	Label dict.Category
}

// largeLookupEntry is one observed large community in the query index.
type largeLookupEntry struct {
	stats   LargeStats
	cluster int32 // index into LargeClusters; -1 for excluded
}

// LargeLookup is the full verdict for one large community, mirroring
// Lookup.
type LargeLookup struct {
	Comm     bgp.LargeCommunity
	Observed bool
	Category dict.Category
	Stats    LargeStats
	Reason   ExcludeReason
	Cluster  *LargeCluster // nil when excluded or unobserved
}

// LargeClusterSummary is the flat, pointer-free description of one
// large cluster; see ClusterSummary.
type LargeClusterSummary struct {
	Alpha  uint32
	Fn     uint32
	Lo, Hi uint32
	Label  dict.Category
	Size   int
	// OnPath/OffPath are the members' unique-path counts, summed.
	OnPath, OffPath int64
	PureOnPath      bool
	PureOffPath     bool
	Ratio           float64
}

// LargeVerdict is the flat counterpart of LargeLookup, the
// allocation-free serving primitive for large-community queries.
type LargeVerdict struct {
	Comm     bgp.LargeCommunity
	Observed bool
	Category dict.Category
	Stats    LargeStats
	Reason   ExcludeReason
	// HasCluster reports whether Cluster is meaningful.
	HasCluster bool
	Cluster    LargeClusterSummary
}

// summarizeLarge aggregates one heap large cluster into its summary.
func summarizeLarge(cl *LargeCluster) LargeClusterSummary {
	s := LargeClusterSummary{
		Alpha: cl.Alpha, Fn: cl.Fn, Lo: cl.Lo, Hi: cl.Hi, Label: cl.Label,
		Size:       len(cl.Members),
		PureOnPath: cl.PureOnPath, PureOffPath: cl.PureOffPath,
		Ratio: cl.Ratio,
	}
	for i := range cl.Members {
		s.OnPath += int64(cl.Members[i].OnPath)
		s.OffPath += int64(cl.Members[i].OffPath)
	}
	return s
}

// CategoryLarge returns the inferred label of a large community
// (CatUnknown when excluded or unobserved).
func (inf *Inferences) CategoryLarge(lc bgp.LargeCommunity) dict.Category {
	return inf.LargeLabels[lc]
}

// LookupLarge explains a large community's verdict; see Lookup. The
// returned Cluster aliases the Inferences and must not be mutated.
func (inf *Inferences) LookupLarge(lc bgp.LargeCommunity) LargeLookup {
	e, ok := inf.largeIndex[lc]
	if !ok {
		return LargeLookup{Comm: lc, Reason: ExcludeUnobserved}
	}
	l := LargeLookup{Comm: lc, Observed: true, Stats: e.stats}
	if e.cluster >= 0 {
		l.Cluster = &inf.LargeClusters[e.cluster]
		l.Category = l.Cluster.Label
	} else {
		l.Reason = inf.LargeExcluded[lc]
	}
	return l
}

// VerdictLarge answers one large-community query without allocating.
func (inf *Inferences) VerdictLarge(lc bgp.LargeCommunity) LargeVerdict {
	e, ok := inf.largeIndex[lc]
	if !ok {
		return LargeVerdict{Comm: lc, Reason: ExcludeUnobserved}
	}
	v := LargeVerdict{Comm: lc, Observed: true, Stats: e.stats}
	if e.cluster >= 0 {
		v.HasCluster = true
		v.Cluster = summarizeLarge(&inf.LargeClusters[e.cluster])
		v.Category = v.Cluster.Label
	} else {
		v.Reason = inf.LargeExcluded[lc]
	}
	return v
}

// LargeObserved returns how many large communities the index covers.
func (inf *Inferences) LargeObserved() int { return len(inf.largeIndex) }

// LargeCounts returns how many large communities were inferred action
// and information.
func (inf *Inferences) LargeCounts() (action, info int) {
	for _, cat := range inf.LargeLabels {
		switch cat {
		case dict.CatAction:
			action++
		case dict.CatInformation:
			info++
		}
	}
	return action, info
}

// LargeClusterCount returns the number of inferred large clusters.
func (inf *Inferences) LargeClusterCount() int { return len(inf.LargeClusters) }

// LargeClusterSummaryAt summarizes the i-th large cluster.
func (inf *Inferences) LargeClusterSummaryAt(i int) LargeClusterSummary {
	return summarizeLarge(&inf.LargeClusters[i])
}

// EachLargeLabeled visits every classified large community in map
// order.
func (inf *Inferences) EachLargeLabeled(fn func(lc bgp.LargeCommunity, cat dict.Category) bool) {
	for lc, cat := range inf.LargeLabels {
		if !fn(lc, cat) {
			return
		}
	}
}

// buildLargeIndex (re)derives the large Lookup index from LargeClusters
// and the excluded large communities' stats.
func (inf *Inferences) buildLargeIndex(excludedStats map[bgp.LargeCommunity]LargeStats) {
	if len(inf.LargeClusters) == 0 && len(inf.LargeExcluded) == 0 {
		return
	}
	inf.largeIndex = make(map[bgp.LargeCommunity]largeLookupEntry,
		len(inf.LargeLabels)+len(inf.LargeExcluded))
	for i := range inf.LargeClusters {
		for _, m := range inf.LargeClusters[i].Members {
			inf.largeIndex[m.Comm] = largeLookupEntry{stats: m, cluster: int32(i)}
		}
	}
	for lc := range inf.LargeExcluded {
		st := excludedStats[lc]
		st.Comm = lc
		inf.largeIndex[lc] = largeLookupEntry{stats: st, cluster: -1}
	}
}

// hasLargeTuples reports (in O(1)) whether any tuple in the store
// carries large communities, so classic-only loads skip the large
// observation pass entirely.
func (ts *TupleStore) hasLargeTuples() bool {
	return ts.shared.larges.table.Load() != nil
}

// observeLarges computes per-large-community on/off-path statistics
// over unique AS paths into os.LargeStats, honoring the VP filter and
// sibling awareness. It runs on the classic pass's index builder: a
// large community's key is its rank in the sorted distinct-large set
// the store keeps, so the rows come out in LargeCommunity order and
// the result is the same for every worker count.
func observeLarges(ts *TupleStore, opts Options, os *ObservationSet, workers int, done <-chan struct{}) {
	ls := sortedLarges(ts.large, workers)
	rank := make(map[bgp.LargeCommunity]uint32, len(ls))
	for i, lc := range ls {
		rank[lc] = uint32(i)
	}
	idx, _ := buildCommIndex(ts, opts, workers, done, pairSource{
		size: func(t *Tuple) int { return int(t.lcomms.n) },
		emit: func(dst []uint64, t *Tuple, pid uint64) []uint64 {
			for _, lc := range ts.TupleLarges(t) {
				r, ok := rank[lc]
				if !ok {
					panic("core: tuple large community missing from the distinct-large set")
				}
				dst = append(dst, uint64(r)<<32|pid)
			}
			return dst
		},
	})
	if chClosed(done) {
		return
	}
	stats := make([]LargeStats, len(idx.keys))
	countRows(ts, idx, opts, workers, done,
		func(key uint32) uint32 { return ls[key].GlobalAdmin },
		func(r, on, off int) {
			stats[r] = LargeStats{Comm: ls[idx.keys[r]], OnPath: on, OffPath: off}
		})
	os.LargeStats = make(map[bgp.LargeCommunity]*LargeStats, len(stats))
	for r := range stats {
		os.LargeStats[stats[r].Comm] = &stats[r]
	}
}

// sortedLarges returns the large communities of set in LargeCommunity
// order without a comparison sort: three stable radix passes order
// field<<32|index keys by LocalData2, then LocalData1, then
// GlobalAdmin, each carrying the order the previous one left.
func sortedLarges(set map[bgp.LargeCommunity]struct{}, workers int) []bgp.LargeCommunity {
	ls := make([]bgp.LargeCommunity, 0, len(set))
	for lc := range set {
		ls = append(ls, lc)
	}
	keys := make([]uint64, len(ls))
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, field := range [...]func(bgp.LargeCommunity) uint32{
		func(lc bgp.LargeCommunity) uint32 { return lc.LocalData2 },
		func(lc bgp.LargeCommunity) uint32 { return lc.LocalData1 },
		func(lc bgp.LargeCommunity) uint32 { return lc.GlobalAdmin },
	} {
		for i, k := range keys {
			keys[i] = uint64(field(ls[uint32(k)]))<<32 | uint64(uint32(k))
		}
		keys = radixSort(keys, make([]uint64, len(keys)), 32, workers)
	}
	out := make([]bgp.LargeCommunity, len(ls))
	for i, k := range keys {
		out[i] = ls[uint32(k)]
	}
	return out
}

// excludedLarge is one large exclusion decision with the stats that
// back LookupLarge's explanation.
type excludedLarge struct {
	comm   bgp.LargeCommunity
	reason ExcludeReason
	stats  LargeStats
}

// largeGroupKey packs the (GlobalAdmin, LocalData1) clustering group
// into one sortable integer.
func largeGroupKey(lc bgp.LargeCommunity) uint64 {
	return uint64(lc.GlobalAdmin)<<32 | uint64(lc.LocalData1)
}

// clusterLarges groups the observed large communities by (α, fn) and
// applies the exclusion and gap rules, emitting unlabeled clusters in
// (α, fn, Lo) order plus the exclusion decisions. Sequential: large
// group counts are small relative to classic α counts.
func clusterLarges(os *ObservationSet, opts Options) (clusters []LargeCluster, excluded []excludedLarge) {
	byGroup := make(map[uint64][]uint32)
	for lc := range os.LargeStats {
		k := largeGroupKey(lc)
		byGroup[k] = append(byGroup[k], lc.LocalData2)
	}
	groups := make([]uint64, 0, len(byGroup))
	for k := range byGroup {
		groups = append(groups, k)
	}
	slices.Sort(groups)

	for _, k := range groups {
		alpha := uint32(k >> 32)
		fn := uint32(k)
		values := byGroup[k]
		slices.Sort(values)

		if !opts.DisableExclusions {
			var reason ExcludeReason
			switch {
			case bgp.IsPrivateASN32(alpha):
				reason = ExcludePrivateASN
			case !os.AlphaOnPath(alpha):
				reason = ExcludeNeverOnPath
			}
			if reason != 0 {
				for _, v := range values {
					lc := bgp.LargeCommunity{GlobalAdmin: alpha, LocalData1: fn, LocalData2: v}
					excluded = append(excluded, excludedLarge{lc, reason, *os.LargeStats[lc]})
				}
				continue
			}
		}

		for _, idx := range clusterIndexes(values, opts.MinGap) {
			members := make([]LargeStats, 0, idx[1]-idx[0])
			for _, v := range values[idx[0]:idx[1]] {
				members = append(members, *os.LargeStats[bgp.LargeCommunity{GlobalAdmin: alpha, LocalData1: fn, LocalData2: v}])
			}
			clusters = append(clusters, LargeCluster{
				Alpha:   alpha,
				Fn:      fn,
				Lo:      members[0].Comm.LocalData2,
				Hi:      members[len(members)-1].Comm.LocalData2,
				Members: members,
			})
		}
	}
	return clusters, excluded
}

// labelLargeCluster applies the shared §5.2 decision rule in place.
func labelLargeCluster(cl *LargeCluster, opts Options) {
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
