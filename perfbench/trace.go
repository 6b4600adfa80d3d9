package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's clocks and
// allocation counter.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	metrics.Read(allocSample)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

// cost is the difference of two usage readings.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func since(u usage) cost {
	now := readUsage()
	return cost{wall: now.wall.Sub(u.wall), cpu: now.cpu - u.cpu, alloc: now.alloc - u.alloc}
}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are offsets from the tracer's start.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"` // 0 for a root span
	Name       string  `json:"name"`
	RunID      string  `json:"run_id"`
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// SelfS is the span's duration minus the time its children cover.
	SelfS float64 `json:"self_s"`
}

func (s *span) wallS() float64 { return s.EndS - s.StartS }

// tracer keeps spans in memory and writes them out when the run ends.
// Spans are opened and closed from one goroutine; the calls they time
// may fan out internally.
type tracer struct {
	runID string
	t0    time.Time
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, t0: time.Now()} }

// do runs fn inside a span named name under parent (0 for a root);
// fn receives the span's id to open children under.
func (t *tracer) do(parent int, name string, fn func(id int) error) error {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, RunID: t.runID})
	id := len(t.spans)
	u := readUsage()
	err := fn(id)
	c := since(u)
	s := &t.spans[id-1]
	s.StartS = u.wall.Sub(t.t0).Seconds()
	s.EndS = s.StartS + c.wall.Seconds()
	s.CPUS = c.cpu.Seconds()
	s.AllocBytes = c.alloc
	return err
}

// call is do for a call that cannot fail and opens no children.
func (t *tracer) call(parent int, name string, fn func()) {
	t.do(parent, name, func(int) error { fn(); return nil }) //nolint:errcheck // fn returns nothing to report
}

// finish computes every span's self time: its duration minus the union
// of the intervals its children cover.
func (t *tracer) finish() {
	kids := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartS, s.EndS})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, s.StartS
		for _, k := range iv {
			lo, hi := max(k[0], end), min(k[1], s.EndS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		s.SelfS = s.wallS() - covered
	}
}

// layerMetrics reports, for every span name, the median wall, CPU and
// allocated MiB over the run's spans of that name. Root pass spans
// report their wall and self time under trace.<pass>_pass_s and
// trace.<pass>_self_s.
func (t *tracer) layerMetrics(vals map[string]float64) {
	type agg struct{ wall, cpu, alloc, self []float64 }
	by := make(map[string]*agg)
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.wall = append(a.wall, s.wallS())
		a.cpu = append(a.cpu, s.CPUS)
		a.alloc = append(a.alloc, float64(s.AllocBytes)/(1<<20))
		a.self = append(a.self, s.SelfS)
	}
	for name, a := range by {
		if pass, ok := strings.CutSuffix(name, ".pass"); ok {
			vals["trace."+pass+"_pass_s"] = median(a.wall)
			vals["trace."+pass+"_self_s"] = median(a.self)
			continue
		}
		vals[name+"_s"] = median(a.wall)
		vals[name+"_cpu_s"] = median(a.cpu)
		vals[name+"_alloc_mb"] = median(a.alloc)
	}
}

// write saves the spans and the run's provenance as one JSON document.
func (t *tracer) write(path string, prov map[string]any) error {
	b, err := json.MarshalIndent(map[string]any{
		"run_id":     t.runID,
		"provenance": prov,
		"spans":      t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
