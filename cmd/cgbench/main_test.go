package main

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestTimingFiguresTimeTheProgram pins what the wall-clock figures
// measure: every cell drives its program, so after a timing figure the
// engine behind it holds no tape it could have replayed instead.
func TestTimingFiguresTimeTheProgram(t *testing.T) {
	eng := timingEngine(1)
	if tb, err := experiments.Fig47_48(eng, 1); err != nil || tb.String() == "" {
		t.Fatalf("Fig 4.7 rendered nothing (err %v)", err)
	}
	if n := eng.Tapes(); n != 0 {
		t.Errorf("after Fig 4.7 the engine holds %d tapes; a timing figure must drive every cell", n)
	}
}

// TestNoBenchmarkHarness: cgbench renders figures; layers are measured
// by bench/ and `go test -bench` (DESIGN.md "Why there is one ledger").
// An import of testing, or of a bench* report package, would bring
// testing.Benchmark, its 33 -test.* flags and a second ledger back into
// the binary.
func TestNoBenchmarkHarness(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range file.Imports {
			imported, _ := strconv.Unquote(imp.Path.Value)
			if imported == "testing" || strings.HasPrefix(path.Base(imported), "bench") {
				t.Errorf("%s imports %q; cgbench has no micro-benchmark mode", name, imported)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("found no source files to check")
	}
}
