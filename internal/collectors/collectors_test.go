package collectors

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gengc"
	"repro/internal/msa"
)

func TestNewBaseNames(t *testing.T) {
	for _, spec := range []string{"cg", "msa", "gen", "none"} {
		ev, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		switch spec {
		case "cg":
			if _, ok := ev.Collector.(*core.CG); !ok {
				t.Fatalf("New(%q).Collector = %T", spec, ev.Collector)
			}
		case "msa":
			if _, ok := ev.Collector.(*msa.System); !ok {
				t.Fatalf("New(%q).Collector = %T", spec, ev.Collector)
			}
		case "gen":
			if _, ok := ev.Collector.(*gengc.System); !ok {
				t.Fatalf("New(%q).Collector = %T", spec, ev.Collector)
			}
		case "none":
			// The empty event table has no collector behind it.
			if ev.Collector != nil || ev.Alloc != nil || ev.Collect != nil {
				t.Fatalf("New(%q) must be the empty table, got %+v", spec, ev)
			}
		}
		if ev.Name != spec {
			t.Fatalf("New(%q).Name = %q", spec, ev.Name)
		}
	}
}

func TestCGModifiersCompose(t *testing.T) {
	col, err := New("cg+recycle+reset")
	if err != nil {
		t.Fatal(err)
	}
	// Name encodes the active variants (core.CG.Name's convention).
	n := col.Name
	if !strings.Contains(n, "recycle") || !strings.Contains(n, "reset") {
		t.Fatalf("cg+recycle+reset built %q", n)
	}
}

// TestEventNamesParse: the name a collector gives its event table —
// what cgrun prints — is itself a spec, for every spec the grammar
// enumerates.
func TestEventNamesParse(t *testing.T) {
	for _, spec := range AllSpecs() {
		ev, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if _, err := Parse(ev.Name); err != nil {
			t.Errorf("New(%q).Name = %q does not parse: %v", spec, ev.Name, err)
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := New("quantum"); err == nil {
		t.Fatal("unknown collector must error")
	}
	if _, err := New("cg+warp"); err == nil {
		t.Fatal("unknown cg modifier must error")
	}
	if _, err := New("msa+recycle"); err == nil {
		t.Fatal("msa must reject modifiers")
	}
	if _, err := New("gen+promote=4"); err == nil {
		t.Fatal("gen must reject modifiers")
	}
}

func TestFactoryReturnsFreshInstances(t *testing.T) {
	f, err := Parse("cg")
	if err != nil {
		t.Fatal(err)
	}
	a, b := f(), f()
	if a.Collector == b.Collector {
		t.Fatal("factory must build a new collector per call")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"cg", "gen", "msa", "none"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if Doc("cg") == "" {
		t.Fatal("cg must have a doc line")
	}
}
