package tape

import (
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// churn drives a small program of nested Calls, allocations, stores
// addressed to the callee frame and to the root frame, reads, a static
// store and a returned object, rounds times. attach is handed the
// fresh runtime before anything runs.
func churn(rounds int, attach func(rt *vm.Runtime)) {
	h := heap.New(1 << 24)
	rt := vm.New(h, vm.None())
	attach(rt)
	cls := h.DefineClass(heap.Class{Name: "Node", Refs: 2, Data: 8})
	slot := rt.StaticSlot("keep")
	th := rt.NewThread(2)
	th.CallVoid(2, func(root *vm.Frame) {
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
}

// TestOperandArrayExact pins the replay form's footprint: the decoded
// operand array holds exactly one slot per varint in the operand stream
// — no spare capacity — and MemBytes charges exactly the two streams
// plus that array (plus the table allowance).
func TestOperandArrayExact(t *testing.T) {
	var rec *Recorder
	churn(500, func(rt *vm.Runtime) { rec = NewRecorder(rt, Meta{Workload: "churn"}) })
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
