// Package obs is the pipeline's zero-dependency observability layer:
// per-stage spans with wall time, throughput and allocation deltas;
// periodic progress events; runtime/pprof stage labels so CPU profiles
// attribute samples to pipeline stages; and a small Prometheus-style
// metric registry with text exposition (see registry.go) that backs
// intentd's GET /metrics.
//
// Everything is callback-based and optional: a nil Observer (or a nil
// *Tracer) costs one branch on the instrumented paths, so the
// unobserved pipeline keeps its allocation-free hot loops.
package obs

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"
)

// Stage identifies one pipeline stage in spans, progress events and
// pprof labels. The constants below are the built-in pipeline stages;
// callers may mint their own (Stage is an open string type — evalrepro
// labels its experiments this way).
type Stage string

// Built-in pipeline stages, in rough pipeline order.
const (
	// StageOpen is opening (and wiring decompression for) one input file.
	StageOpen Stage = "open"
	// StageDecode is framing + decoding one MRT file into views. The
	// span's wall time includes the per-record store-add callbacks; the
	// aggregate StageStoreAdd span reports that inner share.
	StageDecode Stage = "decode"
	// StageFrame is the aggregate time the frame/decode split pipeline
	// spends framing records into batches (a share of StageDecode's wall
	// time), summed across input files. Absent when files are scanned
	// sequentially, where framing and decode are one loop.
	StageFrame Stage = "frame"
	// StageStoreAdd is the aggregate time spent inserting decoded views
	// into the (sharded) tuple store, summed across all decode workers.
	StageStoreAdd Stage = "store-add"
	// StageStitch is collapsing ingestion shards into the canonical
	// tuple store: index concatenation and ordering only, since shard
	// payloads live in storage shared with the stitched store.
	StageStitch Stage = "stitch"
	// StageObserve is the CSR community→path index build plus on/off-path
	// counting.
	StageObserve Stage = "observe"
	// StageCluster groups each α's β values into gap-separated clusters
	// (and applies the paper's exclusion rules).
	StageCluster Stage = "cluster"
	// StageRatio computes cluster purity/ratio evidence and labels each
	// cluster.
	StageRatio Stage = "ratio"
	// StageClassify applies cluster labels to communities and builds the
	// lookup index.
	StageClassify Stage = "classify"
	// StageSnapshotWrite serializes a result into the binary snapshot
	// format.
	StageSnapshotWrite Stage = "snapshot-write"
)

// Span is one completed stage measurement. Spans from parallel workers
// (per-file open/decode) overlap in wall time; sum their durations for
// aggregate worker-seconds, not elapsed time.
type Span struct {
	Stage Stage
	// Label is optional detail — the input file path for per-file spans,
	// the experiment id for evalrepro stages.
	Label    string
	Start    time.Time
	Duration time.Duration

	// Throughput counters; zero when a stage has nothing to report.
	Records int64 // MRT records (or stage-specific items) processed
	Tuples  int64 // tuples produced/visited
	Bytes   int64 // bytes consumed

	// Allocation deltas over the span, from runtime.MemStats — process
	// wide, so concurrent stages attribute each other's allocations.
	// Only top-level sequential stages report them; per-file worker
	// spans leave them zero.
	Allocs     uint64 // heap objects allocated
	AllocBytes uint64 // heap bytes allocated
}

// ProgressEvent is a periodic pipeline heartbeat.
type ProgressEvent struct {
	// Elapsed is the time since the pipeline (tracer) started.
	Elapsed time.Duration
	// Stage is the most recently started stage.
	Stage Stage
	// FilesDone / Files track input-file completion (MRT loads only).
	FilesDone, Files int64
	// Live throughput counters.
	Records int64
	Tuples  int64
	Bytes   int64
	// Final marks the closing event emitted when the pipeline finishes.
	Final bool
}

// Observer receives pipeline telemetry. Implementations MUST be safe
// for concurrent use: per-file spans arrive from parallel ingest
// workers, and progress events from a ticker goroutine.
type Observer interface {
	// StageStart announces a stage (or one file's stage) beginning.
	StageStart(stage Stage, label string)
	// StageEnd delivers the completed span.
	StageEnd(span Span)
	// Progress delivers a periodic heartbeat.
	Progress(ev ProgressEvent)
}

// Funcs adapts optional callbacks to the Observer interface; nil fields
// are skipped.
type Funcs struct {
	OnStageStart func(stage Stage, label string)
	OnStageEnd   func(span Span)
	OnProgress   func(ev ProgressEvent)
}

// StageStart implements Observer.
func (f Funcs) StageStart(stage Stage, label string) {
	if f.OnStageStart != nil {
		f.OnStageStart(stage, label)
	}
}

// StageEnd implements Observer.
func (f Funcs) StageEnd(span Span) {
	if f.OnStageEnd != nil {
		f.OnStageEnd(span)
	}
}

// Progress implements Observer.
func (f Funcs) Progress(ev ProgressEvent) {
	if f.OnProgress != nil {
		f.OnProgress(ev)
	}
}

// multi fans telemetry out to several observers in order.
type multi []Observer

// Multi combines observers; nils are dropped. Returns nil when nothing
// remains, so Multi(nil, nil) disables observation entirely.
func Multi(os ...Observer) Observer {
	var m multi
	for _, o := range os {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}

func (m multi) StageStart(stage Stage, label string) {
	for _, o := range m {
		o.StageStart(stage, label)
	}
}

func (m multi) StageEnd(span Span) {
	for _, o := range m {
		o.StageEnd(span)
	}
}

func (m multi) Progress(ev ProgressEvent) {
	for _, o := range m {
		o.Progress(ev)
	}
}

// Time runs f as the named stage: the goroutine (and every goroutine it
// spawns) carries a pprof "stage" label while f runs, so -cpuprofile
// output attributes samples per stage even with a nil observer; with an
// observer attached it also measures wall time plus process allocation
// deltas and emits StageStart/StageEnd. fill, if non-nil, runs after f
// to annotate the span with throughput counters.
func Time(ctx context.Context, o Observer, stage Stage, label string, fill func(*Span), f func(context.Context) error) error {
	var err error
	labels := pprof.Labels("stage", string(stage))
	if o == nil {
		pprof.Do(ctx, labels, func(ctx context.Context) { err = f(ctx) })
		return err
	}

	o.StageStart(stage, label)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	pprof.Do(ctx, labels, func(ctx context.Context) { err = f(ctx) })
	span := Span{Stage: stage, Label: label, Start: start, Duration: time.Since(start)}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	span.Allocs = after.Mallocs - before.Mallocs
	span.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if fill != nil {
		fill(&span)
	}
	o.StageEnd(span)
	return err
}
