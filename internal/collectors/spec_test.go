package collectors

import (
	"math/rand"
	"strings"
	"testing"
)

// TestSpecRoundTrip is the property the results codec depends on: for
// every base and every combination of its modifiers — in any order, with duplicates —
// ParseSpec(s.String()) yields an equal Spec.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range Names() {
		mods := Modifiers(base)
		// Every subset of the modifiers (cg has 6, the rest none).
		for mask := 0; mask < 1<<len(mods); mask++ {
			var pick []string
			for i, m := range mods {
				if mask&(1<<i) != 0 {
					pick = append(pick, m)
				}
			}
			// Shuffle and duplicate a random pick: order and multiplicity
			// must not matter.
			rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
			if len(pick) > 0 {
				pick = append(pick, pick[rng.Intn(len(pick))])
			}
			raw := strings.Join(append([]string{base}, pick...), "+")

			s, err := ParseSpec(raw)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", raw, err)
			}
			back, err := ParseSpec(s.String())
			if err != nil {
				t.Fatalf("ParseSpec(%q.String() = %q): %v", raw, s, err)
			}
			if !back.Equal(s) {
				t.Fatalf("round trip diverged: %q -> %+v -> %q -> %+v", raw, s, s, back)
			}
			if _, err := s.Factory(); err != nil {
				t.Fatalf("canonical spec %q lost its factory: %v", s, err)
			}
		}
	}
}

// TestSpecAliasesCanonicalise checks that respellings of one
// configuration collapse to the identity the store keys on.
func TestSpecAliasesCanonicalise(t *testing.T) {
	for raw, want := range map[string]string{
		"cg+reset+recycle":   "cg+recycle+reset",
		"cg+recycle+recycle": "cg+recycle",
		"cg+typed+checked":   "cg+checked+typed",
		"msa":                "msa",
		"gen":                "gen",
	} {
		got, err := Canonical(raw)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", raw, err)
		}
		if got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", raw, got, want)
		}
	}
}

// TestSpecRejectsBadGrammar mirrors TestErrors at the Spec layer.
func TestSpecRejectsBadGrammar(t *testing.T) {
	for _, bad := range []string{
		"quantum", "cg+warp", "msa+recycle", "",
		// gen takes no modifiers: its tenuring threshold is a constant.
		"gen+promote=2", "gen+promote=4",
		// An empty modifier is not a modifier.
		"cg+", "cg+recycle+", "cg++recycle",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) must error", bad)
		}
	}
}

// TestModifiersDeclared keeps the families table in sync with the cg
// switch in Spec.Factory.
func TestModifiersDeclared(t *testing.T) {
	for _, m := range []string{"noopt", "recycle", "typed", "reset", "packed", "checked"} {
		found := false
		for _, d := range Modifiers("cg") {
			if d == m {
				found = true
			}
		}
		if !found {
			t.Fatalf("cg modifier %q not declared in families", m)
		}
		if _, err := ParseSpec("cg+" + m); err != nil {
			t.Fatalf("declared modifier %q does not build: %v", m, err)
		}
	}
	if mods := Modifiers("msa"); len(mods) != 0 {
		t.Fatalf("msa declares modifiers %v but accepts none", mods)
	}
}
