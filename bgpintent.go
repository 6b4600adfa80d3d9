// Package bgpintent infers the coarse-grained intent of BGP communities
// — action versus information — from public BGP routing data, after
// Krenc, Luckie, Marder and claffy, "Coarse-grained Inference of BGP
// Community Intent" (IMC 2023).
//
// The library ships everything needed to reproduce the paper offline:
// a BGP/MRT substrate, a synthetic Internet and route-propagation
// simulator that stands in for RouteViews/RIPE RIS, the inference
// pipeline itself, a reimplementation of the Da Silva et al. location
// inference it improves, and an experiment harness regenerating every
// table and figure (see DESIGN.md and EXPERIMENTS.md).
//
// Quick start:
//
//	c, err := bgpintent.NewSyntheticCorpus(bgpintent.CorpusOptions{})
//	if err != nil { ... }
//	res, err := c.ClassifyContext(context.Background(), bgpintent.DefaultParams())
//	if err != nil { ... }
//	cat := res.Category(bgpintent.Comm(1299, 2569)) // Action
//
// Real MRT archives (TABLE_DUMP_V2 RIBs and BGP4MP updates) load with
// LoadMRT, which also accepts a context for cancellation and an
// Observer for stage tracing and progress reporting.
package bgpintent

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"bgpintent/internal/asrel"
	"bgpintent/internal/bgp"
	"bgpintent/internal/core"
	"bgpintent/internal/corpus"
	"bgpintent/internal/dict"
	"bgpintent/internal/ingest"
	"bgpintent/internal/mrt"
	"bgpintent/internal/obs"
)

// Observability types, re-exported from the internal obs package so
// callers outside this module can implement Observer and consume spans.
type (
	// Observer receives pipeline telemetry: stage starts, completed
	// stage spans, and periodic progress heartbeats. Implementations
	// must be safe for concurrent use — per-file spans arrive from
	// ingestion workers running in parallel.
	Observer = obs.Observer
	// Stage names one pipeline stage in spans and progress events.
	Stage = obs.Stage
	// Span is one completed stage: wall time, throughput counters and —
	// for sequential top-level stages — allocation deltas.
	Span = obs.Span
	// ProgressEvent is a periodic heartbeat with live counters.
	ProgressEvent = obs.ProgressEvent
)

// Pipeline stages, in execution order. Open and Decode are per-file
// spans emitted concurrently by ingestion workers; the rest are
// sequential top-level stages.
const (
	StageOpen          = obs.StageOpen
	StageDecode        = obs.StageDecode
	StageFrame         = obs.StageFrame
	StageStoreAdd      = obs.StageStoreAdd
	StageStitch        = obs.StageStitch
	StageObserve       = obs.StageObserve
	StageCluster       = obs.StageCluster
	StageRatio         = obs.StageRatio
	StageClassify      = obs.StageClassify
	StageSnapshotWrite = obs.StageSnapshotWrite
)

// Category is the inferred coarse-grained intent of a community.
type Category int8

const (
	// Unknown: unobserved, or excluded from classification (private-ASN
	// α, or an α that never appears in AS paths, such as IXP route
	// servers).
	Unknown Category = iota
	// Action communities are set by neighbors to influence routing in
	// the AS identified by the community's first half.
	Action
	// Information communities are set by that AS itself to record route
	// metadata (ingress location, neighbor relationship, ROV status...).
	Information
)

// String returns "unknown", "action" or "information".
func (c Category) String() string {
	switch c {
	case Action:
		return "action"
	case Information:
		return "information"
	default:
		return "unknown"
	}
}

func fromDictCategory(c dict.Category) Category {
	switch c {
	case dict.CatAction:
		return Action
	case dict.CatInformation:
		return Information
	default:
		return Unknown
	}
}

// Community is a regular 32-bit BGP community α:β.
//
// Deprecated: Community predates large-community support and can only
// name classic communities. New code should use CommunityKey, which
// covers both classic α:β and RFC 8092 α:fn:value keys under one
// identity; existing callers keep compiling unchanged.
type Community struct {
	ASN   uint16 // α: the AS defining the meaning
	Value uint16 // β: the operator-assigned value
}

// Comm builds a Community.
//
// Deprecated: use ClassicKey, which returns the generalized
// CommunityKey accepted by the kind-aware query APIs.
func Comm(asn, value uint16) Community { return Community{ASN: asn, Value: value} }

// String renders α:β.
func (c Community) String() string { return fmt.Sprintf("%d:%d", c.ASN, c.Value) }

func (c Community) wire() bgp.Community { return bgp.NewCommunity(c.ASN, c.Value) }

// Key converts the classic community to its generalized key.
func (c Community) Key() CommunityKey { return ClassicKey(c.ASN, c.Value) }

// CommunityKind says which community family a CommunityKey names.
type CommunityKind int8

const (
	// KindClassic is a regular RFC 1997 community α:β.
	KindClassic CommunityKind = iota
	// KindLarge is an RFC 8092 large community α:fn:value.
	KindLarge
)

// String returns "classic" or "large".
func (k CommunityKind) String() string {
	if k == KindLarge {
		return "large"
	}
	return "classic"
}

// CommunityKey is the generalized community identity the inference
// APIs accept: a classic α:β (16-bit halves) or a large α:fn:value
// (three 32-bit words) under one comparable value type. The zero value
// is the classic community 0:0.
type CommunityKey struct {
	kind CommunityKind
	asn  uint32 // α (classic) / GlobalAdmin (large)
	fn   uint32 // LocalData1; always 0 for classic keys
	val  uint32 // β (classic) / LocalData2 (large)
}

// ClassicKey builds the key of a regular community α:β.
func ClassicKey(asn, value uint16) CommunityKey {
	return CommunityKey{kind: KindClassic, asn: uint32(asn), val: uint32(value)}
}

// LargeKey builds the key of a large community α:fn:value.
func LargeKey(asn, fn, value uint32) CommunityKey {
	return CommunityKey{kind: KindLarge, asn: asn, fn: fn, val: value}
}

// ParseCommunityKey parses "α:β" (classic) or "α:fn:value" (large);
// String is its exact inverse.
func ParseCommunityKey(s string) (CommunityKey, error) {
	comms, larges, err := bgp.ParseCommunities(s)
	if err != nil {
		return CommunityKey{}, err
	}
	switch {
	case len(comms) == 1 && len(larges) == 0:
		return ClassicKey(comms[0].ASN(), comms[0].Value()), nil
	case len(comms) == 0 && len(larges) == 1:
		lc := larges[0]
		return LargeKey(lc.GlobalAdmin, lc.LocalData1, lc.LocalData2), nil
	default:
		return CommunityKey{}, fmt.Errorf("bgpintent: %q is not a single community", s)
	}
}

// Kind reports whether the key names a classic or a large community.
func (k CommunityKey) Kind() CommunityKind { return k.kind }

// ASN is α: the AS defining the community's meaning (the global
// administrator for large keys).
func (k CommunityKey) ASN() uint32 { return k.asn }

// Fn is the large key's function selector (LocalData1); 0 for classic
// keys.
func (k CommunityKey) Fn() uint32 { return k.fn }

// Value is the operator-assigned value: β for classic keys, LocalData2
// for large ones.
func (k CommunityKey) Value() uint32 { return k.val }

// String renders "α:β" or "α:fn:value"; ParseCommunityKey is its
// exact inverse.
func (k CommunityKey) String() string {
	if k.kind == KindLarge {
		return fmt.Sprintf("%d:%d:%d", k.asn, k.fn, k.val)
	}
	return fmt.Sprintf("%d:%d", k.asn, k.val)
}

// wireLarge converts a large key to its wire form; only valid when
// Kind() == KindLarge.
func (k CommunityKey) wireLarge() bgp.LargeCommunity {
	return bgp.LargeCommunity{GlobalAdmin: k.asn, LocalData1: k.fn, LocalData2: k.val}
}

// Params are the classifier parameters; the defaults are the paper's
// operating point.
type Params struct {
	// MinGap is the maximum distance between adjacent β values within one
	// cluster (paper: 140; 0 disables clustering).
	MinGap int
	// RatioThreshold is the on-path:off-path ratio at or above which a
	// mixed cluster is information (paper: 160).
	RatioThreshold float64
	// Parallelism bounds the classifier's worker pool: 0 means one
	// worker per CPU (GOMAXPROCS), 1 forces sequential execution.
	// Results are identical for every setting.
	Parallelism int
	// Observer, when non-nil, receives a span per classification stage
	// (observe, cluster, ratio, classify). It does not change results:
	// an observed run is byte-identical to an unobserved one.
	Observer Observer
}

// DefaultParams returns the paper's parameters (gap 140, ratio 160:1).
func DefaultParams() Params { return Params{MinGap: 140, RatioThreshold: 160} }

// Validate rejects nonsensical classifier parameters. The zero value of
// each field means "use the paper default" and is always valid; set
// fields must make sense: MinGap cannot be negative, and a set
// RatioThreshold must be at least 1 (the ratio compares on-path to
// off-path evidence, so values in (0,1) would label clusters dominated
// by off-path observations as information).
func (p Params) Validate() error {
	if p.MinGap < 0 {
		return fmt.Errorf("bgpintent: MinGap %d is negative (0 disables clustering)", p.MinGap)
	}
	if p.RatioThreshold < 0 {
		return fmt.Errorf("bgpintent: RatioThreshold %g is negative", p.RatioThreshold)
	}
	if p.RatioThreshold > 0 && p.RatioThreshold < 1 {
		return fmt.Errorf("bgpintent: RatioThreshold %g is below 1 (use 0 for the paper default of %g)",
			p.RatioThreshold, DefaultParams().RatioThreshold)
	}
	return nil
}

// CorpusOptions control synthetic corpus generation.
type CorpusOptions struct {
	// Seed selects the deterministic corpus; 0 means seed 1.
	Seed int64
	// Days of simulated BGP data (default 7, like the paper's week).
	Days int
	// Small selects the fast test-sized corpus instead of the default
	// benchmark scale.
	Small bool
	// DisableLargeCommunities produces a classic-only corpus: the
	// simulator skips large-community (RFC 8092) mirroring entirely.
	// Classic routes are unchanged either way.
	DisableLargeCommunities bool
	// LargeMatrix makes large-community mirroring deterministic — every
	// eligible plan community an origin attaches gets its large twin
	// (the arouteserver-style std/lrg announce/suppress matrix) —
	// instead of the default probabilistic sampling.
	LargeMatrix bool
}

// Corpus is a loaded BGP dataset ready for classification: unique
// (AS path, communities) tuples plus the as2org sibling context.
type Corpus struct {
	store *core.TupleStore
	orgs  *asrel.OrgMap

	// synthetic extras (nil for MRT-loaded corpora)
	syn *corpus.Corpus
}

// NewSyntheticCorpus generates the paper-substitute corpus: a synthetic
// Internet whose routing and community-tagging behavior reproduces the
// distributions the method relies on (see DESIGN.md §2).
func NewSyntheticCorpus(opts CorpusOptions) (*Corpus, error) {
	cfg := corpus.DefaultConfig()
	if opts.Small {
		cfg = corpus.TinyConfig()
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Days != 0 {
		cfg.Days = opts.Days
	}
	cfg.NoLargeComms = opts.DisableLargeCommunities
	cfg.LargeMatrix = opts.LargeMatrix
	c, err := corpus.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Corpus{store: c.Store, orgs: c.Orgs, syn: c}, nil
}

// DefaultMaxErrorRate is the default per-file error budget for lenient
// MRT loading: above this corruption rate a load aborts rather than
// passing silent garbage off as a clean corpus.
const DefaultMaxErrorRate = ingest.DefaultMaxErrorRate

// LoadOptions control the fault tolerance of MRT corpus loading.
type LoadOptions struct {
	// Strict fails on the first malformed record. The default (lenient)
	// skips undecodable records and resynchronizes over corrupt framing,
	// within the error budget.
	Strict bool
	// MaxErrorRate is the lenient-mode error budget: the per-file
	// fraction of corrupt records above which the load aborts. 0 means
	// DefaultMaxErrorRate; negative disables the budget.
	MaxErrorRate float64
	// Parallelism bounds concurrent decode workers: 0 means one worker
	// per CPU (GOMAXPROCS), 1 forces the sequential load path. With
	// more workers than input files the ingestion layer splits single
	// files across workers (frame/decode pipeline). Any setting
	// produces an identical corpus and identical LoadStats.
	Parallelism int
	// ForceFrameSplit makes ingestion split every file across the
	// decode workers even when file-level parallelism would cover them.
	// For tests and experiments; output is identical either way.
	ForceFrameSplit bool
	// Observer, when non-nil, receives per-file open/decode spans, the
	// frame, store-add and stitch stage spans, and progress events. It
	// does not change results: an observed load produces a corpus
	// byte-identical to an unobserved one.
	Observer Observer
	// ProgressInterval is the heartbeat period for periodic
	// ProgressEvents; 0 disables the ticker (a final event still fires
	// when the load completes). Ignored without an Observer.
	ProgressInterval time.Duration
}

// Sources names the inputs of one MRT corpus load.
type Sources struct {
	// RIBs are TABLE_DUMP_V2 RIB dump paths; Updates are BGP4MP updates
	// paths. .gz and .bz2 archives are decompressed transparently.
	RIBs    []string
	Updates []string
	// OrgPath optionally points at an as2org file ("asn|org" lines)
	// mapping ASNs to organizations for sibling-aware on-path tests.
	OrgPath string
}

// LoadStats summarizes what an MRT load salvaged and what it dropped.
type LoadStats struct {
	Files          int   // files ingested
	Records        int   // MRT records framed
	Decoded        int   // records decoded into routes
	Skipped        int   // undecodable records (or RIB entries) dropped
	Resyncs        int   // framing failures recovered by resynchronization
	TruncatedFiles int   // files that ended mid-record
	UnknownRecords int   // records of types the pipeline does not decode
	BytesRead      int64 // bytes consumed
	BytesSkipped   int64 // bytes lost to corruption
}

// Clean reports whether the load saw no corruption at all.
func (s LoadStats) Clean() bool {
	return s.Skipped == 0 && s.Resyncs == 0 && s.TruncatedFiles == 0
}

// Summary renders a one-line account of the load.
func (s LoadStats) Summary() string {
	if s.Clean() {
		return fmt.Sprintf("%d files, %d records (%d decoded, %d unknown-type), no corruption",
			s.Files, s.Records, s.Decoded, s.UnknownRecords)
	}
	return fmt.Sprintf("%d files, %d records (%d decoded, %d unknown-type), %d skipped, %d resyncs, %d truncated files, %d bytes lost of %d read",
		s.Files, s.Records, s.Decoded, s.UnknownRecords, s.Skipped, s.Resyncs, s.TruncatedFiles, s.BytesSkipped, s.BytesRead)
}

func loadStats(ist *ingest.Stats) LoadStats {
	t := &ist.Total
	return LoadStats{
		Files:          len(ist.Files),
		Records:        t.Records,
		Decoded:        t.Decoded,
		Skipped:        t.Skipped,
		Resyncs:        t.Resyncs,
		TruncatedFiles: t.Truncated,
		UnknownRecords: t.UnknownCount(),
		BytesRead:      t.BytesRead,
		BytesSkipped:   t.BytesSkipped,
	}
}

// LoadMRT reads the named TABLE_DUMP_V2 RIB and BGP4MP updates files
// (the RouteViews/RIS archive formats; .gz and .bz2 are decompressed
// transparently) plus an optional as2org file, and builds the tuple
// corpus. Loading is lenient with the default error budget unless
// opts says otherwise.
//
// Canceling ctx aborts the load between records with ctx.Err(); no
// goroutine outlives the call. The returned LoadStats are valid even
// when the load fails, covering the files processed so far.
func LoadMRT(ctx context.Context, src Sources, opts LoadOptions) (*Corpus, LoadStats, error) {
	tr := obs.NewTracer(opts.Observer, opts.ProgressInterval)
	defer tr.Close()

	c := &Corpus{orgs: asrel.NewOrgMap()}
	iopts := ingest.Options{
		Strict:          opts.Strict,
		MaxErrorRate:    opts.MaxErrorRate,
		Tracer:          tr,
		ForceFrameSplit: opts.ForceFrameSplit,
	}
	ist := &ingest.Stats{}

	files := make([]ingest.InputFile, 0, len(src.RIBs)+len(src.Updates))
	for _, path := range src.RIBs {
		files = append(files, ingest.InputFile{Path: path})
	}
	for _, path := range src.Updates {
		files = append(files, ingest.InputFile{Path: path, Updates: true})
	}
	tr.SetFiles(int64(len(files)))
	tr.StartProgress()

	// Decode workers feed the sharded store; the deterministic stitch
	// makes the corpus independent of scheduling. The shard count is
	// fixed (not derived from Parallelism) so each shard's contents —
	// and therefore the stitched layout — are identical at any worker
	// count.
	sts := core.NewShardedTupleStore(64)
	ribFn := func(v *mrt.RIBView) error {
		sts.AddViewASPathLarge(v.Peer.ASN, v.Entry.Attrs.ASPath, v.Entry.Attrs.Communities, v.Entry.Attrs.LargeCommunities)
		return nil
	}
	updFn := func(v *mrt.UpdateView) error {
		if len(v.Update.NLRI) == 0 {
			return nil // pure withdrawals carry no tuple
		}
		sts.AddViewASPathLarge(v.PeerAS, v.Update.Attrs.ASPath, v.Update.Attrs.Communities, v.Update.Attrs.LargeCommunities)
		return nil
	}
	if tr.Active() {
		// Wrap the store feeds with per-tuple timing, accumulated into
		// one aggregate store-add span (summed worker-seconds). Only
		// when observed — the unobserved hot path stays untouched.
		ribFn = timedStoreAdd(tr, ribFn)
		updFn = timedStoreAdd(tr, updFn)
	}
	err := ingest.ScanParallelContext(ctx, files, iopts, opts.Parallelism, ist, ribFn, updFn)
	tr.FlushAggregates()
	if err != nil {
		return nil, loadStats(ist), err
	}
	err = tr.Stage(ctx, obs.StageStitch, "", func(s *obs.Span) {
		s.Tuples = int64(c.store.Len())
		tr.AddTuples(int64(c.store.Len()))
	}, func(ctx context.Context) error {
		c.store = sts.Stitch(opts.Parallelism)
		return nil
	})
	if err != nil {
		return nil, loadStats(ist), err
	}

	if src.OrgPath != "" {
		f, err := os.Open(src.OrgPath)
		if err != nil {
			return nil, loadStats(ist), err
		}
		defer f.Close()
		m, err := asrel.ReadOrgMap(f)
		if err != nil {
			return nil, loadStats(ist), err
		}
		c.orgs = m
	}
	c.store.AnnotateOrgs(c.orgs)
	return c, loadStats(ist), nil
}

// timedStoreAdd wraps one ingest callback with store-add accounting:
// per-call time accumulates into the aggregate store-add span emitted
// once ingestion completes.
func timedStoreAdd[V any](tr *obs.Tracer, fn func(V) error) func(V) error {
	return func(v V) error {
		start := time.Now()
		err := fn(v)
		tr.AddStageTime(obs.StageStoreAdd, time.Since(start), 1)
		return err
	}
}

// Tuples returns the number of unique (AS path, communities) tuples.
func (c *Corpus) Tuples() int { return c.store.Len() }

// Paths returns the number of unique AS paths.
func (c *Corpus) Paths() int { return c.store.PathCount() }

// LargeCommunities returns the number of distinct large (96-bit)
// communities observed. Large communities are full inference subjects:
// they are keyed into tuples alongside regular communities and
// clustered per (administrator, function) group by Classify.
func (c *Corpus) LargeCommunities() int { return c.store.LargeCommunityCount() }

// Communities returns the distinct observed communities.
func (c *Corpus) Communities() []Community {
	raw := c.store.Communities()
	out := make([]Community, len(raw))
	for i, r := range raw {
		out[i] = Community{ASN: r.ASN(), Value: r.Value()}
	}
	return out
}

// VantagePoints returns the distinct vantage-point ASNs in the corpus.
func (c *Corpus) VantagePoints() []uint32 { return c.store.VPSet() }

// ClassifyContext runs the paper's inference pipeline over the corpus.
// Invalid parameters are rejected up front (see Params.Validate);
// canceling ctx aborts the run with ctx.Err() within a bounded number
// of loop iterations per worker, and no goroutine outlives the call.
func (c *Corpus) ClassifyContext(ctx context.Context, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	if p.MinGap > 0 || p.RatioThreshold > 0 {
		opts.MinGap = p.MinGap
		opts.RatioThreshold = p.RatioThreshold
	}
	opts.Workers = p.Parallelism
	opts.Orgs = c.orgs
	opts.Tracer = obs.NewTracer(p.Observer, 0)
	inf, err := core.ClassifyContext(ctx, c.store, opts)
	if err != nil {
		return nil, err
	}
	return newResult(inf), nil
}

// ExcludeReason explains why a community was not classified.
type ExcludeReason string

// Exclusion reasons.
const (
	ExcludedPrivateASN  ExcludeReason = "private-asn"
	ExcludedNeverOnPath ExcludeReason = "never-on-path"
	// ExcludedUnobserved is reported by Lookup for communities that do
	// not appear in the corpus at all.
	ExcludedUnobserved ExcludeReason = "unobserved"
)

// Result holds the inferences for one corpus. It may be heap-resident
// (classifier output, v1 snapshot) or a zero-copy view over an
// mmap-ed v2 snapshot file — queries behave identically either way.
type Result struct {
	src core.InferenceSource

	// mapped is non-nil when src serves straight from a snapshot file.
	mapped *core.Mapped

	// Lazily built ASN → clusters index for heap-backed results (mapped
	// ones binary-search the snapshot's sorted cluster section instead).
	asnOnce sync.Once
	asnIdx  map[uint16][]Cluster
}

func newResult(inf *core.Inferences) *Result { return &Result{src: inf} }

func newMappedResult(m *core.Mapped) *Result { return &Result{src: m, mapped: m} }

// inferences returns the heap form of the result, materializing a
// mapped one (full copy) on demand.
func (r *Result) inferences() *core.Inferences { return r.src.Materialize() }

// Mmapped reports whether the result serves directly from a memory-
// mapped snapshot file (false for heap-resident results, and on
// platforms where mapping fell back to a heap read).
func (r *Result) Mmapped() bool { return r.mapped != nil && r.mapped.Mmapped() }

// SnapshotPath returns the backing snapshot file for a result opened
// with OpenSnapshotFile, "" otherwise.
func (r *Result) SnapshotPath() string {
	if r.mapped == nil {
		return ""
	}
	return r.mapped.Path()
}

// Close releases the snapshot mapping, if any. Queries must not race
// with or follow Close; heap-backed results ignore it.
func (r *Result) Close() error {
	if r.mapped == nil {
		return nil
	}
	return r.mapped.Close()
}

// Category returns the inferred label for a community.
func (r *Result) Category(c Community) Category {
	return fromDictCategory(r.src.Category(c.wire()))
}

// Excluded returns the exclusion reason, if the community was seen but
// deliberately left unclassified.
func (r *Result) Excluded(c Community) (ExcludeReason, bool) {
	v := r.src.Verdict(c.wire())
	if !v.Observed || v.Reason == core.ExcludeNone {
		return "", false
	}
	return ExcludeReason(v.Reason.String()), true
}

// Counts returns the number of action and information inferences.
func (r *Result) Counts() (action, information int) {
	return r.src.Counts()
}

// ExcludedCount returns how many observed communities were deliberately
// left unclassified.
func (r *Result) ExcludedCount() int { return r.src.ExcludedCount() }

// ObservedCount returns how many distinct communities the result covers
// (classified plus excluded).
func (r *Result) ObservedCount() int { return r.src.Observed() }

// Labeled returns every classified community with its label, sorted.
func (r *Result) Labeled() []LabeledCommunity {
	action, information := r.src.Counts()
	out := make([]LabeledCommunity, 0, action+information)
	r.src.EachLabeled(func(comm bgp.Community, cat dict.Category) bool {
		out = append(out, LabeledCommunity{
			Community: Community{ASN: comm.ASN(), Value: comm.Value()},
			Category:  fromDictCategory(cat),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Community, out[j].Community
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		return a.Value < b.Value
	})
	return out
}

// LabeledCommunity pairs a community with its inferred category.
type LabeledCommunity struct {
	Community Community
	Category  Category
}

// Cluster is one inferred community cluster: the contiguous value range
// one AS devotes to a single purpose, with the evidence behind its
// label.
type Cluster struct {
	ASN      uint16
	Lo, Hi   uint16
	Category Category
	Size     int // observed member communities
	// OnPath/OffPath are the summed unique-path counts of the members.
	OnPath, OffPath int
	// PureOnPath/PureOffPath mark clusters never observed off-path /
	// on-path; Ratio is the decision ratio of mixed clusters.
	PureOnPath  bool
	PureOffPath bool
	Ratio       float64
}

func clusterFromSummary(cs core.ClusterSummary) Cluster {
	return Cluster{
		ASN:         cs.Alpha,
		Lo:          cs.Lo,
		Hi:          cs.Hi,
		Category:    fromDictCategory(cs.Label),
		Size:        cs.Size,
		OnPath:      int(cs.OnPath),
		OffPath:     int(cs.OffPath),
		PureOnPath:  cs.PureOnPath,
		PureOffPath: cs.PureOffPath,
		Ratio:       cs.Ratio,
	}
}

// Clusters returns every inferred cluster, sorted by (ASN, Lo) — the
// coarse community dictionary structure the paper's Figure 4 shows.
func (r *Result) Clusters() []Cluster {
	n := r.src.ClusterCount()
	out := make([]Cluster, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, clusterFromSummary(r.src.ClusterSummaryAt(i)))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].Lo < out[j].Lo
	})
	return out
}

// ClusterCount returns the number of inferred clusters.
func (r *Result) ClusterCount() int { return r.src.ClusterCount() }

// ClustersFor returns the clusters of one signaling AS, in ascending
// Lo order. Mapped results binary-search the snapshot's (ASN, Lo)-
// sorted cluster section; heap results consult a lazily built index.
func (r *Result) ClustersFor(asn uint16) []Cluster {
	if r.mapped != nil {
		lo, hi := r.mapped.AlphaClusters(asn)
		if lo == hi {
			return nil
		}
		out := make([]Cluster, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, clusterFromSummary(r.mapped.ClusterSummaryAt(i)))
		}
		return out
	}
	r.asnOnce.Do(func() {
		r.asnIdx = make(map[uint16][]Cluster)
		for _, cl := range r.Clusters() {
			r.asnIdx[cl.ASN] = append(r.asnIdx[cl.ASN], cl)
		}
	})
	return r.asnIdx[asn]
}

// WriteTSV emits the inferences as "community<TAB>category" lines, the
// shape of the paper's released inference dataset. When the result
// covers large communities every line gains a third "kind" column
// (classic|large) and the large inferences follow the classic ones;
// classic-only results keep the two-column shape byte for byte.
func (r *Result) WriteTSV(w io.Writer) error {
	if r.src.LargeObserved() == 0 {
		for _, lc := range r.Labeled() {
			if _, err := fmt.Fprintf(w, "%s\t%s\n", lc.Community, lc.Category); err != nil {
				return err
			}
		}
		return nil
	}
	for _, lc := range r.Labeled() {
		if _, err := fmt.Fprintf(w, "%s\t%s\tclassic\n", lc.Community, lc.Category); err != nil {
			return err
		}
	}
	for _, lk := range r.LabeledLarge() {
		if _, err := fmt.Fprintf(w, "%s\t%s\tlarge\n", lk.Key, lk.Category); err != nil {
			return err
		}
	}
	return nil
}

// Lookup is the full verdict for one community: the label, the
// per-community evidence, the cluster that decided it, and — when
// unclassified — the reason why (private-ASN α, never-on-path α, or
// simply unobserved).
type Lookup struct {
	Community Community
	Observed  bool
	Category  Category
	// OnPath/OffPath count the unique AS paths the community was
	// observed on with/without α (or a sibling) in the path.
	OnPath, OffPath int
	// Reason is empty for classified communities.
	Reason ExcludeReason
	// Cluster is the deciding cluster; nil when excluded or unobserved.
	Cluster *Cluster
}

// Lookup explains a community's verdict.
func (r *Result) Lookup(c Community) Lookup {
	v := r.src.Verdict(c.wire())
	out := Lookup{
		Community: c,
		Observed:  v.Observed,
		Category:  fromDictCategory(v.Category),
		OnPath:    v.Stats.OnPath,
		OffPath:   v.Stats.OffPath,
	}
	if v.Reason != core.ExcludeNone {
		out.Reason = ExcludeReason(v.Reason.String())
	}
	if v.HasCluster {
		cl := clusterFromSummary(v.Cluster)
		out.Cluster = &cl
	}
	return out
}

// LargeCluster is one inferred large-community cluster: the contiguous
// LocalData2 range one (administrator, function) pair devotes to a
// single purpose, with the evidence behind its label.
type LargeCluster struct {
	ASN      uint32 // global administrator (α)
	Fn       uint32 // function selector (LocalData1)
	Lo, Hi   uint32 // LocalData2 bounds
	Category Category
	Size     int // observed member communities
	// OnPath/OffPath are the summed unique-path counts of the members.
	OnPath, OffPath int
	// PureOnPath/PureOffPath mark clusters never observed off-path /
	// on-path; Ratio is the decision ratio of mixed clusters.
	PureOnPath  bool
	PureOffPath bool
	Ratio       float64
}

func largeClusterFromSummary(cs core.LargeClusterSummary) LargeCluster {
	return LargeCluster{
		ASN:         cs.Alpha,
		Fn:          cs.Fn,
		Lo:          cs.Lo,
		Hi:          cs.Hi,
		Category:    fromDictCategory(cs.Label),
		Size:        cs.Size,
		OnPath:      int(cs.OnPath),
		OffPath:     int(cs.OffPath),
		PureOnPath:  cs.PureOnPath,
		PureOffPath: cs.PureOffPath,
		Ratio:       cs.Ratio,
	}
}

// KeyLookup is the kind-aware counterpart of Lookup: the full verdict
// for a classic or large community named by its CommunityKey.
type KeyLookup struct {
	Key      CommunityKey
	Observed bool
	Category Category
	// OnPath/OffPath count the unique AS paths the community was
	// observed on with/without its administrator (or a sibling) in the
	// path.
	OnPath, OffPath int
	// Reason is empty for classified communities.
	Reason ExcludeReason
	// Cluster is the deciding classic cluster; nil for large keys and
	// for excluded/unobserved communities.
	Cluster *Cluster
	// LargeCluster is the deciding large cluster; nil for classic keys
	// and for excluded/unobserved communities.
	LargeCluster *LargeCluster
}

// LookupKey explains the verdict for a community of either kind.
func (r *Result) LookupKey(k CommunityKey) KeyLookup {
	if k.Kind() == KindLarge {
		v := r.src.VerdictLarge(k.wireLarge())
		out := KeyLookup{
			Key:      k,
			Observed: v.Observed,
			Category: fromDictCategory(v.Category),
			OnPath:   v.Stats.OnPath,
			OffPath:  v.Stats.OffPath,
		}
		if v.Reason != core.ExcludeNone {
			out.Reason = ExcludeReason(v.Reason.String())
		}
		if v.HasCluster {
			cl := largeClusterFromSummary(v.Cluster)
			out.LargeCluster = &cl
		}
		return out
	}
	l := r.Lookup(Community{ASN: uint16(k.asn), Value: uint16(k.val)})
	return KeyLookup{
		Key:      k,
		Observed: l.Observed,
		Category: l.Category,
		OnPath:   l.OnPath,
		OffPath:  l.OffPath,
		Reason:   l.Reason,
		Cluster:  l.Cluster,
	}
}

// CategoryKey returns the inferred label for a community of either
// kind (CatUnknown when excluded or unobserved).
func (r *Result) CategoryKey(k CommunityKey) Category {
	if k.Kind() == KindLarge {
		v := r.src.VerdictLarge(k.wireLarge())
		if !v.HasCluster {
			return fromDictCategory(dict.CatUnknown)
		}
		return fromDictCategory(v.Category)
	}
	return r.Category(Community{ASN: uint16(k.asn), Value: uint16(k.val)})
}

// LargeCounts returns the number of action and information inferences
// over large communities.
func (r *Result) LargeCounts() (action, information int) {
	return r.src.LargeCounts()
}

// LargeObservedCount returns how many distinct large communities the
// result covers (classified plus excluded).
func (r *Result) LargeObservedCount() int { return r.src.LargeObserved() }

// LargeExcludedCount returns how many observed large communities were
// deliberately left unclassified.
func (r *Result) LargeExcludedCount() int {
	action, information := r.src.LargeCounts()
	return r.src.LargeObserved() - action - information
}

// LargeClusterCount returns the number of inferred large clusters.
func (r *Result) LargeClusterCount() int { return r.src.LargeClusterCount() }

// LargeClusters returns every inferred large cluster, sorted by
// (ASN, Fn, Lo).
func (r *Result) LargeClusters() []LargeCluster {
	n := r.src.LargeClusterCount()
	out := make([]LargeCluster, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, largeClusterFromSummary(r.src.LargeClusterSummaryAt(i)))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Lo < out[j].Lo
	})
	return out
}

// LabeledKey pairs a generalized community key with its inferred
// category.
type LabeledKey struct {
	Key      CommunityKey
	Category Category
}

// LabeledLarge returns every classified large community with its
// label, sorted by (ASN, Fn, Value).
func (r *Result) LabeledLarge() []LabeledKey {
	action, information := r.src.LargeCounts()
	out := make([]LabeledKey, 0, action+information)
	r.src.EachLargeLabeled(func(lc bgp.LargeCommunity, cat dict.Category) bool {
		out = append(out, LabeledKey{
			Key:      LargeKey(lc.GlobalAdmin, lc.LocalData1, lc.LocalData2),
			Category: fromDictCategory(cat),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.asn != b.asn {
			return a.asn < b.asn
		}
		if a.fn != b.fn {
			return a.fn < b.fn
		}
		return a.val < b.val
	})
	return out
}

// SnapshotInfo is a snapshot's provenance and corpus counters.
type SnapshotInfo struct {
	Created time.Time
	Source  string // free-form, e.g. the input file globs

	Tuples           int
	Paths            int
	VantagePoints    int
	Communities      int
	LargeCommunities int
}

// SnapshotInfo captures the corpus counters for a snapshot written now
// from this corpus.
func (c *Corpus) SnapshotInfo(source string) SnapshotInfo {
	return SnapshotInfo{
		Created:          time.Now(),
		Source:           source,
		Tuples:           c.Tuples(),
		Paths:            c.Paths(),
		VantagePoints:    len(c.VantagePoints()),
		Communities:      len(c.Communities()),
		LargeCommunities: c.LargeCommunities(),
	}
}

func (si SnapshotInfo) meta() core.SnapshotMeta {
	return core.SnapshotMeta{
		CreatedUnix:      si.Created.Unix(),
		Source:           si.Source,
		Tuples:           si.Tuples,
		Paths:            si.Paths,
		VantagePoints:    si.VantagePoints,
		Communities:      si.Communities,
		LargeCommunities: si.LargeCommunities,
	}
}

func snapshotInfo(m core.SnapshotMeta) SnapshotInfo {
	return SnapshotInfo{
		Created:          time.Unix(m.CreatedUnix, 0).UTC(),
		Source:           m.Source,
		Tuples:           m.Tuples,
		Paths:            m.Paths,
		VantagePoints:    m.VantagePoints,
		Communities:      m.Communities,
		LargeCommunities: m.LargeCommunities,
	}
}

// WriteSnapshot serializes the result into the v1 gob snapshot format
// (see internal/core). The round trip ReadSnapshot(WriteSnapshot(r))
// preserves every label, cluster, exclusion, and Lookup verdict.
func (r *Result) WriteSnapshot(w io.Writer, info SnapshotInfo) error {
	return core.WriteSnapshot(w, r.inferences(), info.meta())
}

// WriteSnapshotV2 serializes the result into the flat, mmap-able v2
// snapshot layout that OpenSnapshotFile serves zero-copy. Verdicts are
// identical across formats; v2 additionally gives replicas O(1) cold
// start and shared page cache. v2 cannot represent large-community
// inferences: writing a result that has any fails with an error — use
// WriteSnapshotV3 or WriteSnapshotFlat for those.
func (r *Result) WriteSnapshotV2(w io.Writer, info SnapshotInfo) error {
	return core.WriteSnapshotV2(w, r.inferences(), info.meta())
}

// WriteSnapshotV3 serializes the result into the v3 flat layout: the
// v2 container plus the large-community sections. Valid for any
// result; classic-only results just carry empty large sections.
func (r *Result) WriteSnapshotV3(w io.Writer, info SnapshotInfo) error {
	return core.WriteSnapshotV3(w, r.inferences(), info.meta())
}

// WriteSnapshotFlat picks the cheapest flat layout that can represent
// the result: v2 for classic-only inferences (byte-identical to
// WriteSnapshotV2) and v3 when large inferences are present.
func (r *Result) WriteSnapshotFlat(w io.Writer, info SnapshotInfo) error {
	return core.WriteSnapshotFlat(w, r.inferences(), info.meta())
}

// ReadSnapshot loads a Result back from a snapshot of either format
// version, rebuilding the heap query index.
func ReadSnapshot(rd io.Reader) (*Result, SnapshotInfo, error) {
	inf, meta, err := core.ReadSnapshot(rd)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return newResult(inf), snapshotInfo(meta), nil
}

// OpenSnapshotFile opens the snapshot at path in the cheapest mode its
// format allows: v2/v3 snapshots are memory-mapped and served zero-copy
// (O(1) cold start, page cache shared between replicas), v1 snapshots
// are decoded onto the heap. Close the Result to release a mapping.
func OpenSnapshotFile(path string) (*Result, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	var magic [10]byte
	_, rerr := io.ReadFull(f, magic[:])
	f.Close()
	if rerr != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("snapshot: short header: %w", rerr)
	}
	if magic[9] == core.SnapshotVersionV2 || magic[9] == core.SnapshotVersionV3 {
		m, err := core.OpenSnapshotMmap(path)
		if err != nil {
			return nil, SnapshotInfo{}, err
		}
		return newMappedResult(m), snapshotInfo(m.Meta()), nil
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// ReadSnapshotInfo reads only a snapshot's provenance/counter header,
// without decoding the inference body.
func ReadSnapshotInfo(rd io.Reader) (SnapshotInfo, error) {
	meta, err := core.ReadSnapshotMeta(rd)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return snapshotInfo(meta), nil
}

// jsonInference mirrors one community in WriteJSON output. Kind is
// only rendered when the result covers large communities, so
// classic-only documents keep their original shape.
type jsonInference struct {
	Community string `json:"community"`
	Category  string `json:"category"`
	Kind      string `json:"kind,omitempty"`
}

// jsonCluster mirrors one cluster in WriteJSON output. The numeric
// fields are wide enough for large clusters; classic clusters render
// identically to the historical uint16 shape. Fn and Kind only appear
// when the result covers large communities.
type jsonCluster struct {
	ASN         uint32  `json:"asn"`
	Lo          uint32  `json:"lo"`
	Hi          uint32  `json:"hi"`
	Category    string  `json:"category"`
	Size        int     `json:"size"`
	OnPath      int     `json:"on_path"`
	OffPath     int     `json:"off_path"`
	PureOnPath  bool    `json:"pure_on_path"`
	PureOffPath bool    `json:"pure_off_path"`
	Ratio       float64 `json:"ratio"`
	Fn          *uint32 `json:"fn,omitempty"`
	Kind        string  `json:"kind,omitempty"`
}

// WriteJSON emits the full inference output — labels, clusters, and
// summary counts — as one JSON document. When the result covers large
// communities every inference and cluster carries a "kind" field
// (classic|large), large clusters additionally carry "fn", and the
// top-level large_* counters appear; classic-only documents are byte-
// identical to the historical output.
func (r *Result) WriteJSON(w io.Writer) error {
	action, info := r.Counts()
	largeAction, largeInfo := r.src.LargeCounts()
	withKinds := r.src.LargeObserved() > 0
	doc := struct {
		Action           int             `json:"action"`
		Information      int             `json:"information"`
		Excluded         int             `json:"excluded"`
		LargeAction      int             `json:"large_action,omitempty"`
		LargeInformation int             `json:"large_information,omitempty"`
		LargeExcluded    int             `json:"large_excluded,omitempty"`
		Inferences       []jsonInference `json:"inferences"`
		Clusters         []jsonCluster   `json:"clusters"`
	}{
		Action:           action,
		Information:      info,
		Excluded:         r.src.ExcludedCount(),
		LargeAction:      largeAction,
		LargeInformation: largeInfo,
		LargeExcluded:    r.LargeExcludedCount(),
		Inferences:       make([]jsonInference, 0, action+info+largeAction+largeInfo),
		Clusters:         make([]jsonCluster, 0, r.src.ClusterCount()+r.src.LargeClusterCount()),
	}
	kindOf := func(k CommunityKind) string {
		if !withKinds {
			return ""
		}
		return k.String()
	}
	for _, lc := range r.Labeled() {
		doc.Inferences = append(doc.Inferences, jsonInference{
			Community: lc.Community.String(), Category: lc.Category.String(),
			Kind: kindOf(KindClassic)})
	}
	for _, lk := range r.LabeledLarge() {
		doc.Inferences = append(doc.Inferences, jsonInference{
			Community: lk.Key.String(), Category: lk.Category.String(),
			Kind: kindOf(KindLarge)})
	}
	for _, cl := range r.Clusters() {
		doc.Clusters = append(doc.Clusters, jsonCluster{
			ASN: uint32(cl.ASN), Lo: uint32(cl.Lo), Hi: uint32(cl.Hi),
			Category: cl.Category.String(),
			Size:     cl.Size, OnPath: cl.OnPath, OffPath: cl.OffPath,
			PureOnPath: cl.PureOnPath, PureOffPath: cl.PureOffPath, Ratio: cl.Ratio,
			Kind: kindOf(KindClassic),
		})
	}
	for _, cl := range r.LargeClusters() {
		fn := cl.Fn
		doc.Clusters = append(doc.Clusters, jsonCluster{
			ASN: cl.ASN, Lo: cl.Lo, Hi: cl.Hi, Category: cl.Category.String(),
			Size: cl.Size, OnPath: cl.OnPath, OffPath: cl.OffPath,
			PureOnPath: cl.PureOnPath, PureOffPath: cl.PureOffPath, Ratio: cl.Ratio,
			Fn: &fn, Kind: kindOf(KindLarge),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
