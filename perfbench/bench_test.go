package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at tiny scale and holds the
// benchmark to BENCHMARK.json: every metric named there is printed with
// its unit, and a wrong answer is counted as a failure.
//
//	cd perfbench && go test ./...

var intentdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	intentdBin = filepath.Join(dir, "intentd")
	build := exec.Command("go", "build", "-o", intentdBin, "bgpintent/cmd/intentd")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build intentd:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

type specFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, trace, inject bool) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 2, trace: trace,
		root: t.TempDir(), intentd: intentdBin, tiny: true, injectWrongAnswer: inject,
	}
	res, prov, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if prov["seed"] != int64(7) || prov["go_version"] == "" || len(prov["input_files"].([]inputFile)) == 0 {
		t.Errorf("%s: incomplete provenance %v", workload, prov)
	}
	return res
}

func TestSpecMatchesBenchmark(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, set := range []struct {
		json []specMetric
		code []metricSpec
	}{{s.EndToEnd, endToEnd}, {s.PerLayer, perLayer}} {
		if len(set.json) != len(set.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(set.json), len(set.code))
		}
		for i := range min(len(set.json), len(set.code)) {
			if j, c := set.json[i], set.code[i]; j.Name != c.name || j.Unit != c.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, j.Name, j.Unit, c.name, c.unit)
			}
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.Name, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestInjectedWrongAnswerFails(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := tinyRun(t, workloads[0].name, trace, true)
		if res.Correct {
			t.Errorf("trace=%v: a run with wrong answers reported correct", trace)
		}
		for name, p := range res.phases {
			if p.failed == 0 && !strings.HasPrefix(name, "trace.") {
				t.Errorf("trace=%v: %s counted no failure among %d operations", trace, name, p.attempted)
			}
		}
	}
}
