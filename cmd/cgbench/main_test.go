package main

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestTimingFiguresTimeTheProgram pins what the wall-clock figures
// measure: every cell drives its program, so rendering Fig 4.7 — whose
// size-1 compress, mpegaudio and javac rows ship a tape — replays
// nothing.
func TestTimingFiguresTimeTheProgram(t *testing.T) {
	p := &obs.Progress{}
	eng := engine.New(1).SetProgress(p)
	figs, err := experiments.Figures("4.7")
	if err != nil {
		t.Fatal(err)
	}
	texts, errs := experiments.Render(eng, figs)
	if errs[0] != nil || texts[0] == "" {
		t.Fatalf("Fig 4.7 rendered nothing (err %v)", errs[0])
	}
	if n := p.Snapshot().TapeReplays; n != 0 {
		t.Errorf("Fig 4.7 replayed %d cells; a timing figure must drive every cell", n)
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
