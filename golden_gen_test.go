package bgpintent

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestGenGoldens regenerates the seed-equivalence goldens; run manually
// with BGPINTENT_GEN_GOLDENS=1.
func TestGenGoldens(t *testing.T) {
	if os.Getenv("BGPINTENT_GEN_GOLDENS") != "1" {
		t.Skip("set BGPINTENT_GEN_GOLDENS=1")
	}
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true})
	if err != nil {
		t.Fatal(err)
	}
	res := mustClassify(t, c, Params{Parallelism: 1})
	var tsv bytes.Buffer
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_synthetic.tsv", tsv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "golden",
		Tuples: c.Tuples(), Paths: c.Paths(), VantagePoints: len(c.VantagePoints()),
		Communities: len(c.Communities()), LargeCommunities: c.LargeCommunities()}
	if err := res.WriteSnapshot(&snap, info); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_synthetic.snap", snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("goldens: %d tsv bytes, %d snap bytes", tsv.Len(), snap.Len())
}

// TestGenClassicGoldens regenerates the classic-only goldens — the
// pre-large-community output contract (TSV, JSON, v1 and v2 snapshot
// bytes) that a corpus without any large communities must reproduce
// forever. Run manually with BGPINTENT_GEN_GOLDENS=1.
func TestGenClassicGoldens(t *testing.T) {
	if os.Getenv("BGPINTENT_GEN_GOLDENS") != "1" {
		t.Skip("set BGPINTENT_GEN_GOLDENS=1")
	}
	c, err := NewSyntheticCorpus(CorpusOptions{Small: true, DisableLargeCommunities: true})
	if err != nil {
		t.Fatal(err)
	}
	res := mustClassify(t, c, Params{Parallelism: 1})
	var tsv bytes.Buffer
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_classic.tsv", tsv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := res.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_classic.json", jsonBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "golden",
		Tuples: c.Tuples(), Paths: c.Paths(), VantagePoints: len(c.VantagePoints()),
		Communities: len(c.Communities()), LargeCommunities: c.LargeCommunities()}
	var snap bytes.Buffer
	if err := res.WriteSnapshot(&snap, info); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_classic.snap", snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := res.WriteSnapshotV2(&v2, info); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_classic.v2snap", v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("classic goldens: %d tsv, %d json, %d snap, %d v2snap bytes",
		tsv.Len(), jsonBuf.Len(), snap.Len(), v2.Len())
}
