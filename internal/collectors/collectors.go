// Package collectors is the closed grammar of collector specs, so no
// caller hard-codes the core/msa/gengc constructors. Every layer that
// needs a collector — the experiment harness, the execution engine and
// the CLI tools — resolves one from a textual spec:
//
//	name[+modifier]...
//
// The base name selects one of the families the thesis compares ("cg",
// "msa", "gen", "none"); modifiers refine its configuration. Only the
// contaminated collector takes modifiers, one per thesis variant:
//
//	cg               the preferred configuration (§3.4 static opt on)
//	cg+noopt         the unoptimized semantics of §2.1
//	cg+recycle       §3.7 recycling
//	cg+typed         Chapter 6 typed recycling (implies recycle)
//	cg+reset         §3.6 resetting during traditional collections
//	cg+packed        a spelling of cg: §3.5's packed word is the one layout (kept for stored keys)
//	cg+checked       §3.1.4 tainted-list assurance checks
//	cg+recycle+reset modifiers compose freely
//
// The grammar is the families table; Spec.Factory is one switch over
// its bases. The results store keys cells by canonical spec, so two
// spellings of one configuration ("cg+reset+recycle", "cg+recycle+reset")
// are one identity, and Spec.String() re-parses to an equal Spec
// (TestSpecRoundTrip).
package collectors

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/gengc"
	"repro/internal/msa"
	"repro/internal/vm"
)

// Factory builds the event-table descriptor (the collector ABI) of a
// fresh, unattached collector: each call returns a new instance, because
// every runtime shard owns its collector. Callers may decorate the
// descriptor — the engine sets Events.GCEvery per job — before attaching.
type Factory func() vm.Events

// family is one collector base: its one-line description and the
// modifiers it accepts, sorted.
type family struct {
	name, doc string
	mods      []string
}

// families is the whole grammar, sorted by name. Every modifier toggles
// an independent configuration bit, so a spec's modifiers are a set:
// order and multiplicity carry no meaning.
var families = []family{
	{"cg", "the contaminated collector (§2-§3); +packed (§3.5) is the one layout, so cg+packed runs as cg",
		[]string{"checked", "noopt", "packed", "recycle", "reset", "typed"}},
	{"gen", "the two-generation related-work baseline (§1.1); promotes after 2 minor cycles", nil},
	{"msa", "the traditional mark-sweep system (§4.5 base)", nil},
	{"none", "no collection: plenty-of-storage configuration (§4.5)", nil},
}

// lookup returns the family named name.
func lookup(name string) (family, bool) {
	i := slices.IndexFunc(families, func(f family) bool { return f.name == name })
	if i < 0 {
		return family{}, false
	}
	return families[i], true
}

// Spec is a validated collector spec: a base name plus its modifiers in
// canonical (sorted, deduplicated) order.
type Spec struct {
	Base string
	Mods []string
}

// ParseSpec resolves a textual spec to its canonical Spec: modifiers
// are sorted and deduplicated, and each is checked against the base's
// family, so a bad spec fails here, not on the first shard.
func ParseSpec(spec string) (Spec, error) {
	parts := strings.Split(spec, "+")
	s := Spec{Base: parts[0]}
	if len(parts) > 1 {
		s.Mods = slices.Compact(slices.Sorted(slices.Values(parts[1:])))
	}
	if err := s.check(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// check validates s against the families table.
func (s Spec) check() error {
	f, ok := lookup(s.Base)
	if !ok {
		return fmt.Errorf("collectors: unknown collector %q (have %s)", s.Base, strings.Join(Names(), ", "))
	}
	for _, m := range s.Mods {
		if !slices.Contains(f.mods, m) {
			if len(f.mods) == 0 {
				return fmt.Errorf("collectors: bad spec %q: %s takes no modifiers", s, s.Base)
			}
			return fmt.Errorf("collectors: bad spec %q: unknown %s modifier %q (want one of %s)",
				s, s.Base, m, strings.Join(f.mods, ", "))
		}
	}
	return nil
}

// String renders the canonical spelling: base name plus "+"-joined
// modifiers. The output re-parses (ParseSpec) to an equal Spec.
func (s Spec) String() string {
	return strings.Join(append([]string{s.Base}, s.Mods...), "+")
}

// Equal reports whether two specs denote the same configuration.
func (s Spec) Equal(o Spec) bool {
	return s.Base == o.Base && slices.Equal(s.Mods, o.Mods)
}

// Factory builds the spec's validated factory.
func (s Spec) Factory() (Factory, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	var f Factory
	switch s.Base {
	case "cg":
		cfg := core.DefaultConfig()
		for _, m := range s.Mods {
			switch m { // "packed" selects nothing: §3.5's word is CG's one layout
			case "checked":
				cfg.Checked = true
			case "noopt":
				cfg.StaticOpt = false
			case "recycle":
				cfg.Recycle = true
			case "reset":
				cfg.ResetOnGC = true
			case "typed":
				cfg.TypedRecycle = true
			}
		}
		f = func() vm.Events { return core.New(cfg).Events() }
	case "gen":
		f = func() vm.Events { return gengc.New().Events() }
	case "msa":
		f = func() vm.Events { return msa.NewSystem().Events() }
	default: // "none", the one base left in families
		f = vm.None
	}
	// Every table is named by its canonical spelling, what cgrun prints.
	name := s.String()
	return func() vm.Events {
		ev := f()
		ev.Name = name
		return ev
	}, nil
}

// Parse resolves spec to a validated factory. The factory may be called
// any number of times, from any goroutine.
func Parse(spec string) (Factory, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Factory()
}

// New resolves spec and builds one collector's event table.
func New(spec string) (vm.Events, error) {
	f, err := Parse(spec)
	if err != nil {
		return vm.Events{}, err
	}
	return f(), nil
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

// Names lists the base names, sorted.
func Names() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.name
	}
	return out
}

// Doc returns the one-line description of a base name.
func Doc(name string) string {
	f, _ := lookup(name)
	return f.doc
}

// Modifiers lists the modifier names a base accepts, sorted.
func Modifiers(name string) []string {
	f, _ := lookup(name)
	return slices.Clone(f.mods)
}

// AllSpecs enumerates the grammar as concrete specs: every base name,
// plus every base combined with each single modifier. The grammar-wide
// gates — the steady-state allocation gate and the elision equivalence
// property — share this one enumeration, so both cover the same grammar.
func AllSpecs() []string {
	var specs []string
	for _, f := range families {
		specs = append(specs, f.name)
		for _, mod := range f.mods {
			specs = append(specs, f.name+"+"+mod)
		}
	}
	return specs
}
