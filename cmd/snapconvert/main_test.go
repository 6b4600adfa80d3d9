package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// golden names a committed snapshot under the repository's testdata.
func golden(name string) string { return filepath.Join("..", "..", "testdata", name) }

// TestRunConvertsGoldens: converting between the committed classic
// goldens reproduces the other golden byte for byte, both ways.
func TestRunConvertsGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		in   string
		to   int
		want string
	}{
		{"golden_classic.snap", 2, "golden_classic.v2snap"},
		{"golden_classic.v2snap", 1, "golden_classic.snap"},
	} {
		out := filepath.Join(dir, tc.want)
		if err := run([]string{"-in", golden(tc.in), "-out", out, "-to", strconv.Itoa(tc.to)}); err != nil {
			t.Fatalf("%s -to %d: %v", tc.in, tc.to, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(golden(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s -to %d: %d bytes differ from %s (%d bytes)", tc.in, tc.to, len(got), tc.want, len(want))
		}
	}
}

// TestRunVerify: -verify accepts the committed v1 and v2 goldens and
// rejects a file that is not a snapshot.
func TestRunVerify(t *testing.T) {
	for _, name := range []string{"golden_classic.snap", "golden_classic.v2snap"} {
		if err := run([]string{"-verify", golden(name)}); err != nil {
			t.Errorf("-verify %s: %v", name, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verify", bad}); err == nil {
		t.Error("-verify accepted garbage")
	}
}

// TestRunLargeSnapshot: a snapshot with large-community inferences
// refuses v2 without leaving a file behind, and auto mode writes v3.
func TestRunLargeSnapshot(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "large.v2snap")
	err := run([]string{"-in", golden("golden_synthetic.snap"), "-out", v2, "-to", "2"})
	if err == nil || !strings.Contains(err.Error(), "v2 format cannot represent") {
		t.Fatalf("-to 2 on large inferences: err = %v, want the v2 format error", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed convert left %d files behind", len(entries))
	}

	auto := filepath.Join(dir, "large.snap")
	if err := run([]string{"-in", golden("golden_synthetic.snap"), "-out", auto, "-to", "0"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 9 {
		t.Fatalf("-to 0 wrote %d bytes", len(data))
	}
	if data[9] != 3 {
		t.Fatalf("-to 0 wrote version %d, want 3", data[9])
	}
	if err := run([]string{"-verify", auto}); err != nil {
		t.Errorf("-verify of the v3 output: %v", err)
	}
}

// TestRunRejectsBadArgs covers the usage errors.
func TestRunRejectsBadArgs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.snap")
	for _, args := range [][]string{
		{},
		{"-in", golden("golden_classic.snap")},
		{"-in", golden("golden_classic.snap"), "-out", out, "-to", "4"},
		{"-in", filepath.Join(t.TempDir(), "missing.snap"), "-out", out},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
