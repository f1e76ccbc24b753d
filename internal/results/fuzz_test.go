package results

import (
	"reflect"
	"testing"

	"repro/internal/engine"
)

// FuzzResultsDecode: a stored cell is input — a store directory's file,
// a worker's result frame — so Decode must never panic, and an outcome
// it accepts must survive Encode→Decode unchanged. The seeds are one
// computed cell per payload kind and a failed cell.
func FuzzResultsDecode(f *testing.F) {
	cell := func(job engine.Job) Outcome { return Extract(engine.Exec(job)) }
	seeds := []Outcome{
		// A 4 KiB arena cannot hold compress: the cell fails.
		cell(engine.Job{Workload: "compress", Size: 1, Collector: "cg", HeapBytes: 4096}),
		cell(engine.Job{Workload: "compress", Size: 1, Collector: "none"}),
	}
	for _, col := range []string{"cg", "msa", "gen"} {
		seeds = append(seeds, cell(engine.Job{Workload: "compress", Size: 1, Collector: col, HeapBytes: engine.TightHeap}))
	}
	for i, o := range seeds {
		if (i == 0) != (o.Err != "") {
			f.Fatalf("seed %d (%s): err %q", i, o.Job.Collector, o.Err)
		}
		line, err := Encode(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Decode(data)
		if err != nil {
			return
		}
		line, err := Encode(o)
		if err != nil {
			t.Fatalf("Encode of a decoded outcome: %v", err)
		}
		back, err := Decode(line)
		if err != nil {
			t.Fatalf("Decode of %q: %v", line, err)
		}
		if !reflect.DeepEqual(back, o) {
			t.Fatalf("Encode→Decode changed the outcome:\n%+v\n%+v", o, back)
		}
	})
}
