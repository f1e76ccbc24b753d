package results

import (
	"encoding/json"
	"testing"

	"repro/internal/engine"
)

// TestCompactingCellsAreDeterministic: jess at size 100 finishes its
// tight heap only because the heap compacts, under msa, gen and
// cg+recycle alike. What such a cell stores — payload, cycles, arena
// occupancy and compaction count — is the same at workers 1 and 8, on a
// pooled shard as on a fresh one.
func TestCompactingCellsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("size-100 cells")
	}
	var jobs []engine.Job
	for _, c := range []string{"msa", "gen", "cg+recycle"} {
		jobs = append(jobs, engine.Job{Workload: "jess", Size: 100, Collector: c, HeapBytes: engine.TightHeap})
	}
	det := func(o Outcome) string {
		t.Helper()
		if o.Err != "" {
			t.Fatalf("%s/%d under %s: %s", o.Job.Workload, o.Job.Size, o.Job.Collector, o.Err)
		}
		if o.Compactions == 0 {
			t.Fatalf("%s/%d under %s did not compact: the test no longer exercises compaction", o.Job.Workload, o.Job.Size, o.Job.Collector)
		}
		o.Elapsed, o.Prov, o.Obs = 0, nil, nil // wall-clock halves
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make([]string, len(jobs))
	for i, job := range jobs {
		want[i] = det(Extract(engine.Exec(job)))
	}
	// One worker: each job twice, the second on the shard the first left
	// in the pool.
	one := engine.New(1)
	for i, job := range jobs {
		for range 2 {
			one.ExecRelease(job, func(r engine.Result) {
				if got := det(Extract(r)); got != want[i] {
					t.Fatalf("pooled shard, one worker:\n%s\nfresh:\n%s", got, want[i])
				}
			})
		}
	}
	err := (Local{Eng: engine.New(8)}).Run(jobs, func(i int, o Outcome) {
		if got := det(o); got != want[i] {
			t.Errorf("eight workers:\n%s\nfresh:\n%s", got, want[i])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
