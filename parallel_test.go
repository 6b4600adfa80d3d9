package bgpintent

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bgpintent/internal/corpus"
)

// writeParallelFixture emits a tiny-scale MRT corpus — RIB and updates
// files per collector — plus the as2org file, and returns the globs'
// expansions.
func writeParallelFixture(t *testing.T) (ribs, updates []string, orgPath string) {
	t.Helper()
	dir := t.TempDir()
	cfg := corpus.TinyConfig()
	cfg.Days = 0
	c, err := corpus.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const t0 = 1714521600
	for day := 0; day < 2; day++ {
		res := c.Sim.RunDay(day)
		for col := 0; col < c.Sim.Collectors(); col++ {
			ribPath := filepath.Join(dir, fmt.Sprintf("rc%02d.day%d.rib.mrt", col, day))
			f, err := os.Create(ribPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Sim.WriteRIB(f, uint32(t0+day*86400), col, res); err != nil {
				t.Fatal(err)
			}
			f.Close()
			ribs = append(ribs, ribPath)

			updPath := filepath.Join(dir, fmt.Sprintf("rc%02d.day%d.updates.mrt", col, day))
			uf, err := os.Create(updPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Sim.WriteUpdates(uf, uint32(t0+day*86400), col, res, 0.3); err != nil {
				t.Fatal(err)
			}
			uf.Close()
			updates = append(updates, updPath)
		}
	}
	orgPath = filepath.Join(dir, "as2org.txt")
	f, err := os.Create(orgPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Orgs.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return ribs, updates, orgPath
}

// TestParallelLoadEquivalence is the PR's determinism acceptance test:
// loading and classifying with 1, 2 and 8 workers yields identical
// LoadStats, identical Labeled()/Clusters() output, and byte-identical
// WriteTSV bytes.
func TestParallelLoadEquivalence(t *testing.T) {
	ribs, updates, orgPath := writeParallelFixture(t)

	type outcome struct {
		stats    LoadStats
		tuples   int
		paths    int
		labeled  []LabeledCommunity
		clusters []Cluster
		tsv      []byte
	}
	run := func(workers int) outcome {
		c, stats, err := LoadMRT(context.Background(), Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}, LoadOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res := mustClassify(t, c, Params{Parallelism: workers})
		var buf bytes.Buffer
		if err := res.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		return outcome{
			stats:    stats,
			tuples:   c.Tuples(),
			paths:    c.Paths(),
			labeled:  res.Labeled(),
			clusters: res.Clusters(),
			tsv:      buf.Bytes(),
		}
	}

	ref := run(1)
	if ref.tuples == 0 || len(ref.labeled) == 0 {
		t.Fatalf("degenerate reference: %d tuples, %d labeled", ref.tuples, len(ref.labeled))
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.stats != ref.stats {
			t.Errorf("workers=%d: LoadStats = %+v, want %+v", workers, got.stats, ref.stats)
		}
		if got.tuples != ref.tuples || got.paths != ref.paths {
			t.Errorf("workers=%d: %d tuples/%d paths, want %d/%d",
				workers, got.tuples, got.paths, ref.tuples, ref.paths)
		}
		if !reflect.DeepEqual(got.labeled, ref.labeled) {
			t.Errorf("workers=%d: Labeled() differs", workers)
		}
		if !reflect.DeepEqual(got.clusters, ref.clusters) {
			t.Errorf("workers=%d: Clusters() differs", workers)
		}
		if !bytes.Equal(got.tsv, ref.tsv) {
			t.Errorf("workers=%d: WriteTSV output differs (%d vs %d bytes)",
				workers, len(got.tsv), len(ref.tsv))
		}
	}
}

// TestParallelLoadMatchesSyntheticPath: the MRT round trip at any worker
// count dedups to the same tuple count whether records arrive in file
// order or scrambled across workers — a guard against shard-routing
// bugs that would split one tuple across shards.
func TestParallelLoadMatchesSyntheticPath(t *testing.T) {
	ribs, updates, orgPath := writeParallelFixture(t)
	seq, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}, LoadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := LoadMRT(context.Background(), Sources{RIBs: ribs, Updates: updates, OrgPath: orgPath}, LoadOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Tuples() != par.Tuples() || seq.Paths() != par.Paths() || seq.LargeCommunities() != par.LargeCommunities() {
		t.Fatalf("parallel load diverged: seq %d/%d/%d, par %d/%d/%d",
			seq.Tuples(), seq.Paths(), seq.LargeCommunities(),
			par.Tuples(), par.Paths(), par.LargeCommunities())
	}
	if !reflect.DeepEqual(seq.VantagePoints(), par.VantagePoints()) {
		t.Fatal("vantage point sets differ")
	}
	if !reflect.DeepEqual(seq.Communities(), par.Communities()) {
		t.Fatal("community sets differ")
	}
}
