package engine

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite tapes/ from fresh recordings of the grid's rows")

// fixtures are the workloads this package's tests register; every
// other registered workload is an analog of the default grid.
var fixtures = map[string]bool{"tape-count": true, panicWorkload: true, idleWorkload: true}

// recordRow drives one grid row on a fresh demographics shard under cg,
// as the grid's cells run, with a recorder attached.
func recordRow(t *testing.T, spec workload.Spec, size int) *tape.Tape {
	t.Helper()
	mk, err := collectors.Parse("cg")
	if err != nil {
		t.Fatal(err)
	}
	rt := vm.New(heap.New(DemographicsArena), mk())
	rec := tape.NewRecorder(rt, tape.Meta{
		Workload: spec.Name, Size: size, Threads: spec.Threads(size), HeapBytes: spec.HeapBytes(size),
	})
	spec.Run(rt, size)
	return rec.Finish()
}

// TestSeedTapesAreCurrent pins the shipped tapes to the program and to
// the admission rule. It records every row of the default grid (each
// analog at sizes 1, 10 and 100) and requires tapes/ to hold exactly
// the rows shorter than maxTapedOps ops, each file the encoding of its
// row's fresh recording, byte for byte. A change to an analog's driver
// changes its tape, so it fails until the seeds are rewritten:
//
//	go test ./internal/engine -run SeedTapesAreCurrent -update
func TestSeedTapesAreCurrent(t *testing.T) {
	want := make(map[string][]byte)
	rows := 0
	for _, spec := range workload.All() {
		if fixtures[spec.Name] {
			continue
		}
		for _, size := range []int{1, 10, 100} {
			rows++
			if tp := recordRow(t, spec, size); tp.Ops() < maxTapedOps {
				want[fmt.Sprintf("%s-%d.cgt", spec.Name, size)] = tape.Encode(tp)
			}
		}
	}
	if rows != 24 {
		t.Errorf("recorded %d grid rows, want 24 (8 analogs x 3 sizes)", rows)
	}
	names := slices.Sorted(maps.Keys(want))
	if *update {
		if err := os.RemoveAll("tapes"); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir("tapes", 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join("tapes", name), want[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	entries, err := os.ReadDir("tapes")
	if err != nil {
		t.Fatal(err)
	}
	var seeded []string
	for _, e := range entries {
		seeded = append(seeded, e.Name())
	}
	if !slices.Equal(seeded, names) {
		t.Errorf("tapes/ holds %v; the grid rows shorter than %d ops are %v", seeded, maxTapedOps, names)
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("tapes", name))
		if err != nil {
			continue // reported above
		}
		if !bytes.Equal(b, want[name]) {
			t.Errorf("tapes/%s is stale: its %d bytes differ from the %d a fresh recording encodes to; rerun with -update",
				name, len(b), len(want[name]))
		}
	}
}
