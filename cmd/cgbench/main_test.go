package main

import (
	"bytes"
	"flag"
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

// TestUsageListsOwnFlagsOnly runs the usage printer over this test
// binary's command line, which holds every -test.* flag testing.Init
// registers, plus one flag of our own.
func TestUsageListsOwnFlagsOnly(t *testing.T) {
	fs := flag.NewFlagSet("cgbench", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	if fs.Lookup("test.cpuprofile") == nil {
		t.Fatal("the test binary registers no -test.cpuprofile; the filter is not exercised")
	}
	fs.Int("workers", 3, "engine worker count")
	var out bytes.Buffer
	fs.SetOutput(&out)
	printOwnFlags(fs)
	if got := out.String(); strings.Contains(got, "-test.") || !strings.Contains(got, "-workers int") || !strings.Contains(got, "(default 3)") {
		t.Errorf("usage lists -test.* flags or drops cgbench's own:\n%s", got)
	}
}
