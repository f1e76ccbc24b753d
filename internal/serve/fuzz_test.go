package serve

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/results"
)

// FuzzSweepSpec: a POST /sweep body is input from any client. admit must
// never panic, and a spec it accepts names only what an executor may
// run: sizes on the grid, repeats within maxRepeats, a valid store key
// for every cell and figure ids that resolve. Nothing is run.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"client":"a","figs":["4.1","A.2"]}`,
		`{"cells":[{"workload":"compress","size":10,"collector":"cg+recycle","gc_every":700,"heap_bytes":4096,"repeats":3}]}`,
		`{"cells":[{"workload":"compress","size":2,"collector":"cg"}]}`,
		`{"cells":[{"workload":"javac","size":1,"collector":"msa","repeats":21}]}`,
		`{"figs":["4.1"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, figs, jobs, err := admit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(jobs) != len(spec.Cells) {
			t.Fatalf("%d cells admitted as %d jobs", len(spec.Cells), len(jobs))
		}
		for i, job := range jobs {
			if job.Size != 1 && job.Size != 10 && job.Size != 100 {
				t.Fatalf("cell %d: size %d admitted", i, job.Size)
			}
			if job.Repeats < 0 || job.Repeats > maxRepeats {
				t.Fatalf("cell %d: repeats %d admitted", i, job.Repeats)
			}
			if _, err := results.Key(job); err != nil {
				t.Fatalf("cell %d admitted without a key: %v", i, err)
			}
		}
		if len(spec.Figs) > 0 && len(figs) != len(spec.Figs) {
			t.Fatalf("figs %q admitted as %d figures", spec.Figs, len(figs))
		}
		if len(figs)+len(jobs) == 0 {
			t.Fatalf("spec %q admitted with nothing to run", body)
		}
		for _, fig := range figs {
			if _, err := experiments.DemographicFigs(fig.ID); err != nil {
				t.Fatalf("figure %q admitted: %v", fig.ID, err)
			}
		}
	})
}
