package tape

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// churn drives a small program whose op cycle has every shape a
// recorder hook comes in: nested Calls, allocations, stores addressed
// to the callee frame and to the root frame (so PutField and SetLocal
// are preceded by an opSetFrame inside the same hook), reads, a static
// store, and a returned object. shift extra ops up front move the cycle
// relative to the recorder's op limit. attach, when non-nil, is
// handed the fresh runtime before anything runs.
func churn(shift, rounds int, attach func(rt *vm.Runtime)) *vm.Runtime {
	h := heap.New(1 << 24)
	rt := vm.New(h, vm.None())
	if attach != nil {
		attach(rt)
	}
	cls := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	slot := rt.StaticSlot("keep")
	th := rt.NewThread(2)
	th.CallVoid(2, func(root *vm.Frame) {
		for i := 0; i < shift; i++ {
			root.SetLocal(1, heap.Nil)
		}
		for i := 0; i < rounds; i++ {
			o := th.Call(1, func(f *vm.Frame) heap.HandleID {
				a := f.MustNew(cls)
				inner := th.Call(1, func(g *vm.Frame) heap.HandleID {
					b := g.MustNew(cls)
					root.PutField(a, 0, b)
					g.SetLocal(0, b)
					return b
				})
				f.PutField(a, 1, inner)
				_ = f.GetField(a, 0)
				root.SetLocal(0, a)
				return a
			})
			root.PutStatic(slot, o)
		}
	})
	return rt
}

// TestAbandonInsideEveryHook gives a recorder an op limit and lands the
// limit on each op of the churn cycle in turn — inside a nested Call's
// entry and exit, and inside the PutField and SetLocal hooks, which go
// on to encode operands after the emit that abandoned. Whichever op it
// was, the run must finish exactly like an unrecorded one, the recorder
// must be fully detached (it sees nothing of the rest of the run), and
// Finish must report no tape.
func TestAbandonInsideEveryHook(t *testing.T) {
	const limit = 4096
	const rounds = limit / 4 // ~17 ops a round: several limits' worth
	hit := make(map[byte]bool)
	for shift := 0; shift < 40; shift++ {
		plain := churn(shift, rounds, nil)

		// What a full recording has at the limit is the op that abandons.
		var full *Recorder
		churn(shift, rounds, func(rt *vm.Runtime) { full = NewRecorder(rt, Meta{Workload: "churn"}) })
		hit[full.ops[limit-1]] = true

		var rec *Recorder
		rt := churn(shift, rounds, func(rt *vm.Runtime) {
			rec = NewRecorder(rt, Meta{Workload: "churn"})
			rec.MaxOps(limit)
		})
		// The hook in flight when the recording was abandoned may emit
		// one more op; nothing after it may reach the recorder.
		if !rec.abandoned || len(rec.ops) > 1 {
			t.Errorf("shift %d: abandoned=%v with %d ops buffered after the run: recorder still attached",
				shift, rec.abandoned, len(rec.ops))
		}
		if tp := rec.Finish(); tp != nil {
			t.Errorf("shift %d: Finish returned a %d-op tape for an abandoned recording", shift, tp.Ops())
		}
		if rt.Instr() != plain.Instr() || rt.Heap.Stats() != plain.Heap.Stats() {
			t.Errorf("shift %d: abandoned run differs from the unrecorded one: instr %d vs %d, heap %+v vs %+v",
				shift, rt.Instr(), plain.Instr(), rt.Heap.Stats(), plain.Heap.Stats())
		}
	}
	for _, op := range []byte{opSetFrame, opCall, opReturn, opAlloc, opPutField, opGetField, opSetLocal, opPutStatic} {
		if !hit[op] {
			t.Errorf("no shift put the limit on op %d; the churn cycle no longer covers it", op)
		}
	}
}

// TestMaxOps pins the limit's edge: a run of exactly n ops records in
// full under any limit above n — the same tape an unlimited recorder
// makes — and is abandoned under a limit of n or below.
func TestMaxOps(t *testing.T) {
	record := func(limit int) *Tape {
		var rec *Recorder
		churn(0, 100, func(rt *vm.Runtime) {
			rec = NewRecorder(rt, Meta{Workload: "churn"})
			if limit > 0 {
				rec.MaxOps(limit)
			}
		})
		return rec.Finish()
	}
	full := record(0)
	n := full.Ops()
	if kept := record(n + 1); kept == nil || Hash(kept) != Hash(full) {
		t.Errorf("a %d-op run under a limit of %d: tape %v, want the unlimited recorder's", n, n+1, kept)
	}
	for _, limit := range []int{n, n / 2, 1} {
		if tp := record(limit); tp != nil {
			t.Errorf("a %d-op run under a limit of %d yielded a %d-op tape, want none", n, limit, tp.Ops())
		}
	}
}

// TestOperandArrayExact pins the replay form's footprint: the decoded
// operand array holds exactly one slot per varint in the operand stream
// — no spare capacity — and MemBytes charges exactly the two streams
// plus that array (plus the table allowance).
func TestOperandArrayExact(t *testing.T) {
	var rec *Recorder
	churn(3, 500, func(rt *vm.Runtime) { rec = NewRecorder(rt, Meta{Workload: "churn"}) })
	tp := rec.Finish()
	vals, err := tp.operands()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 || len(vals) >= len(tp.args) {
		t.Fatalf("%d operands decoded from %d operand bytes: the churn tape should have multi-byte varints", len(vals), len(tp.args))
	}
	if cap(vals) != len(vals) || len(vals) != tp.numOperands() {
		t.Errorf("operand array len %d cap %d, numOperands %d: want all equal", len(vals), cap(vals), tp.numOperands())
	}
	tables := 128 + len("Node") + 32 + len("keep") + 16
	if got, want := tp.MemBytes(), len(tp.ops)+len(tp.args)+8*len(vals)+tables; got != want {
		t.Errorf("MemBytes = %d, want %d (ops %d + args %d + 8 x %d operands + %d for the tables)",
			got, want, len(tp.ops), len(tp.args), len(vals), tables)
	}
}

// TestReplayRefusesThreadPastTheCap: a tape is input, so one that asks
// for more threads than a runtime holds is a replay error, not the
// runtime's panic.
func TestReplayRefusesThreadPastTheCap(t *testing.T) {
	n := vm.MaxThreads + 1
	tp := &Tape{ops: make([]byte, n), args: make([]byte, n)} // n × opNewThread(0 locals)
	for i := range tp.ops {
		tp.ops[i] = byte(opNewThread)
	}
	rt := vm.New(heap.New(1<<16), vm.None())
	err := NewReplayer(tp).Run(rt)
	if err == nil || !strings.Contains(err.Error(), "thread 128") {
		t.Fatalf("replaying %d NewThread ops: %v, want an error naming thread 128", n, err)
	}
}
