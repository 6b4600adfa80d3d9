package simulate

import (
	"reflect"
	"testing"
)

// FuzzParseScript: ParseScript never panics, and every script it
// accepts renders through String to text that parses back to an equal
// script.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"spike:65010:666@26h+1h#600; strip:174@30h+2h; flap:65010:20@34h+6h#4x300",
		"spike:65010:666@26h+1h#600",
		"strip:174@30h+2h",
		"flap:65010:20@34h+6h#4x300",
		"strip:4294967295@0s+1ns#",
		" ; ;spike:1:2@1.5h+90m#1;",
		"",
		"spike:65010:666@26h+1h",
		"flap:1:1@1h+1h#0x1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScript(s)
		if err != nil {
			return
		}
		text := sc.String()
		again, err := ParseScript(text)
		if err != nil {
			t.Fatalf("ParseScript(%q) accepted, but its String %q fails: %v", s, text, err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("ParseScript(%q) = %+v, String %q parses to %+v", s, sc, text, again)
		}
	})
}
