package bgpintent

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestGoldenEquivalence pins the classifier output to goldens captured
// from the pre-columnar seed implementation: the columnar tuple store
// and CSR community index must reproduce WriteTSV and snapshot bytes
// exactly, at every worker count. Regenerate the goldens with
// BGPINTENT_GEN_GOLDENS=1 only when the output format itself changes
// deliberately.
// TestGoldenClassicEquivalence pins the classic-only output contract:
// a corpus without any large communities must reproduce the pre-large-
// community TSV, JSON, v1 snapshot, and v2 snapshot bytes exactly, at
// every worker count. This is the backward-compatibility guarantee —
// making large communities first-class inference subjects must not
// move a single byte of classic-only output.
func TestGoldenClassicEquivalence(t *testing.T) {
	want := map[string][]byte{}
	for _, name := range []string{"tsv", "json", "snap", "v2snap"} {
		b, err := os.ReadFile("testdata/golden_classic." + name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = b
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := NewSyntheticCorpus(CorpusOptions{Small: true, DisableLargeCommunities: true})
			if err != nil {
				t.Fatal(err)
			}
			if n := c.LargeCommunities(); n != 0 {
				t.Fatalf("classic corpus observed %d large communities", n)
			}
			res := mustClassify(t, c, Params{Parallelism: workers})
			info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "golden",
				Tuples: c.Tuples(), Paths: c.Paths(), VantagePoints: len(c.VantagePoints()),
				Communities: len(c.Communities()), LargeCommunities: c.LargeCommunities()}
			got := map[string]func(*bytes.Buffer) error{
				"tsv":    func(b *bytes.Buffer) error { return res.WriteTSV(b) },
				"json":   func(b *bytes.Buffer) error { return res.WriteJSON(b) },
				"snap":   func(b *bytes.Buffer) error { return res.WriteSnapshot(b, info) },
				"v2snap": func(b *bytes.Buffer) error { return res.WriteSnapshotV2(b, info) },
			}
			for name, write := range got {
				var buf bytes.Buffer
				if err := write(&buf); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(buf.Bytes(), want[name]) {
					t.Errorf("%s output differs from classic golden (%d vs %d bytes)",
						name, buf.Len(), len(want[name]))
				}
			}
			// The flat auto-select writer must pick v2 for a classic-only
			// result, byte for byte.
			var flat bytes.Buffer
			if err := res.WriteSnapshotFlat(&flat, info); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(flat.Bytes(), want["v2snap"]) {
				t.Errorf("WriteSnapshotFlat on classic corpus differs from v2 golden (%d vs %d bytes)",
					flat.Len(), len(want["v2snap"]))
			}
		})
	}
}

func TestGoldenEquivalence(t *testing.T) {
	wantTSV, err := os.ReadFile("testdata/golden_synthetic.tsv")
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := os.ReadFile("testdata/golden_synthetic.snap")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := NewSyntheticCorpus(CorpusOptions{Small: true})
			if err != nil {
				t.Fatal(err)
			}
			res := mustClassify(t, c, Params{Parallelism: workers})
			var tsv bytes.Buffer
			if err := res.WriteTSV(&tsv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tsv.Bytes(), wantTSV) {
				t.Errorf("TSV output differs from seed golden (%d vs %d bytes)", tsv.Len(), len(wantTSV))
			}
			// The snapshot info must match what the generator used, so
			// the meta section compares byte-for-byte too.
			info := SnapshotInfo{Created: time.Unix(1714521600, 0).UTC(), Source: "golden",
				Tuples: c.Tuples(), Paths: c.Paths(), VantagePoints: len(c.VantagePoints()),
				Communities: len(c.Communities()), LargeCommunities: c.LargeCommunities()}
			var snap bytes.Buffer
			if err := res.WriteSnapshot(&snap, info); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.Bytes(), wantSnap) {
				t.Errorf("snapshot output differs from seed golden (%d vs %d bytes)", snap.Len(), len(wantSnap))
			}
		})
	}
}
