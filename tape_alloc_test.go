package repro

import (
	"testing"

	"repro/internal/collectors"
	"repro/internal/heap"
	"repro/internal/tape"
	"repro/internal/vm"
)

// The tape replay gate extends the steady-state alloc discipline to the
// engine's cache-hit path: a Replayer's inner loop is decode-op →
// switch → direct Runtime call, and once tables are at high-water
// capacity, it must cost zero Go-heap allocations per op. A replay run
// does carry a handful of fixed allocations — the replayed opNewThread
// builds a thread and its first frames, exactly as the driven run did —
// so the gate is scale invariance: replaying a tape with twice the ops
// must not add allocations proportional to the extra ops. Fixed
// per-run costs cancel outright; each run's fresh collector warms its
// own tables by doubling, which can add a few log-scale appends, so
// the threshold sits three orders of magnitude below linear.

// churnTape records iters rounds of call/alloc/mutate/read churn under
// "none" (the tape is collector-independent) and returns the sealed
// tape: ~6 ops per round.
func churnTape(t *testing.T, iters int) *tape.Tape {
	t.Helper()
	mk, err := collectors.Parse("none")
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New(1 << 22)
	rt := vm.New(h, mk())
	rec := tape.NewRecorder(rt, tape.Meta{Workload: "churn-gate", Size: iters})
	cls := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	th := rt.NewThread(2)
	body := func(f *vm.Frame) {
		o := f.MustNew(cls)
		f.PutField(o, 0, o)
		f.SetLocal(0, o)
		_ = f.GetField(o, 0)
	}
	for i := 0; i < iters; i++ {
		th.CallVoid(1, body)
	}
	return rec.Finish()
}

// TestReplayInnerLoopAllocs pins the replay decode loop at zero
// allocations per op under every collector spec.
func TestReplayInnerLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful unraced")
	}
	small := churnTape(t, 2000)
	big := churnTape(t, 4000)
	if small.Ops() < 10000 || big.Ops() <= small.Ops() {
		t.Fatalf("churn tapes too small to gate on: %d and %d ops", small.Ops(), big.Ops())
	}

	for _, spec := range collectors.AllSpecs() {
		t.Run(spec, func(t *testing.T) {
			mk, err := collectors.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			rrt := vm.New(heap.New(1<<22), mk())
			measure := func(tp *tape.Tape) float64 {
				rp := tape.NewReplayer(tp)
				replay := func() {
					rrt.Reset(mk())
					if err := rp.Run(rrt); err != nil {
						t.Fatal(err)
					}
				}
				// Warm: grow the handle table, collector work lists,
				// and runtime pools to their high-water capacities.
				for i := 0; i < 3; i++ {
					replay()
				}
				return testing.AllocsPerRun(10, replay)
			}
			// Measure the big tape first so every table is already at
			// the capacity both measurements run under.
			allocsBig := measure(big)
			allocsSmall := measure(small)
			extraOps := big.Ops() - small.Ops()
			if added := allocsBig - allocsSmall; added > float64(extraOps)/1000 {
				t.Fatalf("replay allocations scale with op count: %v objects for %d extra ops (%v vs %v) under %s",
					added, extraOps, allocsBig, allocsSmall, spec)
			}
			// Sanity bound on the fixed per-run cost itself (thread and
			// frame construction the tape legitimately performs).
			if allocsSmall > float64(small.Ops())/100 {
				t.Fatalf("fixed replay cost suspiciously high: %v allocations for %d ops under %s",
					allocsSmall, small.Ops(), spec)
			}
		})
	}
}
