// Spec is the parsed, canonical form of the registry's spec grammar.
// The results codec and the on-disk cell store key cells by collector
// spec, so two spellings of the same configuration ("cg+reset+recycle",
// "cg+recycle+reset") must collapse to one identity: Spec canonicalises
// by sorting/deduplicating the modifier set, and
// Spec.String() is guaranteed to re-parse to an equal Spec
// (TestSpecRoundTrip exercises every registered base and modifier).
//
// Builders must therefore treat the modifier list as a *set*: order and
// multiplicity carry no meaning. Every current family satisfies this
// (cg's modifiers toggle independent Config bits).

package collectors

import (
	"fmt"
	"sort"
	"strings"
)

// Spec is a validated collector spec: a registered base name plus its
// modifiers in canonical (sorted, deduplicated) order.
type Spec struct {
	Base string
	Mods []string
}

// ParseSpec resolves a textual spec to its canonical Spec: modifiers
// are sorted and deduplicated, and the registered builder validates the
// result so a bad spec fails here, not on the first shard.
func ParseSpec(spec string) (Spec, error) {
	mu.RLock()
	parts := strings.Split(spec, "+")
	e, ok := registry[parts[0]]
	norm := normalizers[parts[0]]
	mu.RUnlock()
	if !ok {
		return Spec{}, fmt.Errorf("collectors: unknown collector %q (have %s)",
			parts[0], strings.Join(Names(), ", "))
	}
	mods := parts[1:]
	if norm != nil {
		mods = norm(mods)
	}
	s := Spec{Base: parts[0], Mods: canonMods(mods)}
	if _, err := e.build(s.Mods); err != nil {
		return Spec{}, fmt.Errorf("collectors: bad spec %q: %w", spec, err)
	}
	return s, nil
}

// canonMods sorts and deduplicates a modifier list (nil for none).
func canonMods(mods []string) []string {
	if len(mods) == 0 {
		return nil
	}
	out := append([]string(nil), mods...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// String renders the canonical spelling: base name plus "+"-joined
// modifiers. The output re-parses (ParseSpec) to an equal Spec.
func (s Spec) String() string {
	if len(s.Mods) == 0 {
		return s.Base
	}
	return s.Base + "+" + strings.Join(s.Mods, "+")
}

// Equal reports whether two specs denote the same configuration.
func (s Spec) Equal(o Spec) bool {
	if s.Base != o.Base || len(s.Mods) != len(o.Mods) {
		return false
	}
	for i := range s.Mods {
		if s.Mods[i] != o.Mods[i] {
			return false
		}
	}
	return true
}

// Factory builds the spec's validated factory.
func (s Spec) Factory() (Factory, error) {
	mu.RLock()
	e, ok := registry[s.Base]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("collectors: unknown collector %q", s.Base)
	}
	f, err := e.build(s.Mods)
	if err != nil {
		return nil, fmt.Errorf("collectors: bad spec %q: %w", s, err)
	}
	return f, nil
}

// Canonical resolves spec and returns its canonical spelling, the cell
// identity the results store keys on.
func Canonical(spec string) (string, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// Modifiers lists the modifier names a registered base accepts, sorted.
// A parameterised modifier appears as its declared representative
// instance (gen's "promote=4" stands for promote=N). The round-trip
// property test and the registry-wide gates enumerate the grammar from
// this.
func Modifiers(name string) []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), registry[name].mods...)
}

// AllSpecs enumerates the registry grammar as concrete specs: every
// base name, plus every base combined with each single declared
// modifier (parameterised modifiers contribute their representative
// instance). This is the one enumeration the registry-wide gates — the
// steady-state allocation gate and the elision equivalence property —
// share, so both always cover the same grammar.
func AllSpecs() []string {
	var specs []string
	for _, base := range Names() {
		specs = append(specs, base)
		for _, mod := range Modifiers(base) {
			specs = append(specs, base+"+"+mod)
		}
	}
	return specs
}
