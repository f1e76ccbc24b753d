// Package collectors is the registry that maps collector names to
// factories, so no caller hard-codes the core/msa/gengc constructors.
// Every layer that needs a collector — the experiment harness, the
// execution engine and the CLI tools — resolves one from a textual spec:
//
//	name[+modifier]...
//
// The base name selects a registered family ("cg", "msa", "gen",
// "none"); modifiers refine its configuration. The contaminated
// collector accepts the modifiers of the thesis's variants:
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
// The generational baseline accepts a parameterised tenuring threshold:
//
//	gen              promote after 2 minor cycles (gengc.PromoteAfter)
//	gen+promote=N    promote after N minor cycles (1-255)
//
// "cg-noopt" and "cg-recycle" are accepted as aliases for the spellings
// the original cgrun flag used. Adding a collector variant is one
// Register call (a parameterised family adds one RegisterNormalizer
// call to keep store identities canonical); nothing else in the tree
// changes. Factories return
// vm.Events descriptors (the event-table collector ABI), not interface
// values: what a collector subscribes to is data the registry's callers
// can decorate before attaching.
package collectors

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/gengc"
	"repro/internal/msa"
	"repro/internal/vm"
)

// Factory builds the event-table descriptor of a fresh, unattached
// collector. Each call must return a new instance (Events.Collector and
// the slot closures must not be shared): the execution engine hands
// every runtime shard its own collector, and sharing one across shards
// would race. Callers may decorate the returned descriptor — the engine
// sets Events.GCEvery per job — before handing it to vm.New/Reset.
type Factory func() vm.Events

// Builder constructs a factory for a base name given its (possibly
// empty) modifier list. It validates the modifiers eagerly so a bad
// spec fails at parse time, not on the first shard.
type Builder func(mods []string) (Factory, error)

// entry is one registered collector family.
type entry struct {
	build Builder
	doc   string
	mods  []string
}

var (
	mu       sync.RWMutex
	registry = make(map[string]entry)
	aliases  = make(map[string]string)
	// normalizers rewrite a base's raw modifier list before
	// canonicalisation (see RegisterNormalizer), so spellings that
	// denote the base's default configuration collapse to the bare
	// base name — the store keys cells by canonical spec, and
	// "gen+promote=2" must be the same identity as "gen".
	normalizers = make(map[string]func(mods []string) []string)
)

// Register adds a collector family under name. doc is a one-line
// description shown by Names-driven usage text; mods declares the
// modifier names the builder accepts (the spec round-trip test, the
// registry-wide gates and usage text enumerate the grammar from them).
// A parameterised modifier is declared as one representative instance
// ("promote=4" stands for promote=N) — the builder validates the full
// value range, the declared instance is what enumeration-driven tests
// exercise, and display paths should label the list as examples. The
// builder must treat
// modifiers as a set — order and multiplicity carry no meaning — so
// canonicalised specs (see Spec) select the same configuration.
// Registering a duplicate name panics: it is a wiring bug, not a
// runtime condition.
func Register(name, doc string, b Builder, mods ...string) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("collectors: duplicate registration of %q", name))
	}
	registry[name] = entry{build: b, doc: doc, mods: canonMods(mods)}
}

// Alias maps an alternate spelling to a canonical spec.
func Alias(name, spec string) {
	mu.Lock()
	defer mu.Unlock()
	aliases[name] = spec
}

// RegisterNormalizer attaches a modifier normaliser to a registered
// base: ParseSpec runs it over the raw modifier list before
// canonicalisation. A parameterised family uses it to collapse
// value respellings ("promote=02" -> "promote=2") and default-valued
// modifiers (the bare base) to one store identity. The normaliser
// must be conservative: rewrite only modifiers it fully understands,
// pass everything else through untouched so the builder still sees —
// and rejects — bad or conflicting input.
func RegisterNormalizer(name string, n func(mods []string) []string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := registry[name]; !ok {
		panic(fmt.Sprintf("collectors: normalizer for unregistered base %q", name))
	}
	if _, dup := normalizers[name]; dup {
		panic(fmt.Sprintf("collectors: duplicate normalizer for %q", name))
	}
	normalizers[name] = n
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

// Names lists the registered base names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Doc returns the one-line description of a registered base name.
func Doc(name string) string {
	mu.RLock()
	defer mu.RUnlock()
	return registry[name].doc
}

// noMods wraps a modifier-free factory into a Builder.
func noMods(name string, f Factory) Builder {
	return func(mods []string) (Factory, error) {
		if len(mods) > 0 {
			return nil, fmt.Errorf("%s takes no modifiers, got %q", name, mods)
		}
		return f, nil
	}
}

// buildCG maps modifier names onto core.Config.
func buildCG(mods []string) (Factory, error) {
	cfg := core.DefaultConfig()
	for _, m := range mods {
		switch m {
		case "noopt":
			cfg.StaticOpt = false
		case "recycle":
			cfg.Recycle = true
		case "typed":
			cfg.TypedRecycle = true
		case "reset":
			cfg.ResetOnGC = true
		case "packed":
			cfg.Packed = true // identity only: selects nothing (core.Config.Packed)
		case "checked":
			cfg.Checked = true
		default:
			return nil, fmt.Errorf("unknown cg modifier %q (want noopt, recycle, typed, reset, packed or checked)", m)
		}
	}
	return func() vm.Events { return core.New(cfg).Events() }, nil
}

// buildGen accepts the promote=N tenuring-threshold modifier (N minor
// cycles before promotion; the default is gengc.PromoteAfter).
func buildGen(mods []string) (Factory, error) {
	promote := gengc.PromoteAfter
	seen := false
	for _, m := range mods {
		val, ok := strings.CutPrefix(m, "promote=")
		if !ok {
			return nil, fmt.Errorf("unknown gen modifier %q (want promote=N)", m)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 || n > 255 {
			return nil, fmt.Errorf("bad gen tenuring threshold %q (want promote=N, 1 <= N <= 255)", m)
		}
		if seen && n != promote {
			return nil, fmt.Errorf("conflicting gen tenuring thresholds %d and %d", promote, n)
		}
		promote, seen = n, true
	}
	return func() vm.Events { return gengc.NewTuned(promote).Events() }, nil
}

func init() {
	Register("cg", "the contaminated collector (§2-§3); +packed (§3.5) is the one layout, so cg+packed runs as cg", buildCG,
		"noopt", "recycle", "typed", "reset", "packed", "checked")
	Register("msa", "the traditional mark-sweep system (§4.5 base)",
		noMods("msa", func() vm.Events { return msa.NewSystem().Events() }))
	// "promote=4" is the declared representative of the promote=N
	// grammar (see Register's doc); buildGen accepts any N in 1-255.
	Register("gen", "the two-generation related-work baseline (§1.1); promote=N tunes the tenuring threshold",
		buildGen, "promote=4")
	// Normalise promote=N modifiers by parsed value, not spelling:
	// numeric respellings ("promote=02") collapse to one canonical
	// form, and a lone threshold equal to the default collapses to the
	// bare base, so both spellings share one store identity (and the
	// collector's own Name(), which spells the default as "gen").
	// Distinct thresholds are deliberately kept — buildGen must still
	// see and reject the conflict — and unparseable modifiers pass
	// through untouched for buildGen to reject.
	RegisterNormalizer("gen", func(mods []string) []string {
		out := mods[:0:0]
		seen := make(map[int]bool)
		for _, m := range mods {
			if v, ok := strings.CutPrefix(m, "promote="); ok {
				if n, err := strconv.Atoi(v); err == nil && n >= 1 && n <= 255 {
					if seen[n] {
						continue
					}
					seen[n] = true
					out = append(out, fmt.Sprintf("promote=%d", n))
					continue
				}
			}
			out = append(out, m)
		}
		if len(seen) == 1 && seen[gengc.PromoteAfter] {
			kept := out[:0]
			def := fmt.Sprintf("promote=%d", gengc.PromoteAfter)
			for _, m := range out {
				if m != def {
					kept = append(kept, m)
				}
			}
			out = kept
		}
		return out
	})
	Register("none", "no collection: plenty-of-storage configuration (§4.5)",
		noMods("none", vm.None))
	Alias("cg-noopt", "cg+noopt")
	Alias("cg-recycle", "cg+recycle")
}
