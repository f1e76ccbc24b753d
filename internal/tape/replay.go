package tape

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/vm"
)

// tapeErr marks errors raised by malformed or truncated tapes. Replay
// panics with a *tapeErr internally (the decode loop runs inside
// nested Thread.Call bodies, where an error return has no channel) and
// Run recovers it into a plain error. Any other panic — notably a
// heap-exhaustion error from a replayed allocation, which must surface
// exactly like the driven run's MustNew panic — is re-raised.
type tapeErr struct{ msg string }

func (e *tapeErr) Error() string { return "tape: " + e.msg }

func fail(format string, a ...any) {
	panic(&tapeErr{msg: fmt.Sprintf(format, a...)})
}

// Replayer re-drives one tape through a runtime. Its inner loop is
// decode-op → switch → direct Runtime call: no driver logic, no RNG,
// and zero steady-state allocations — the handle table, seen-strings
// bitmap and the single Call body closure are all allocated up front
// in NewReplayer and reused across Run calls.
//
// A Replayer is single-goroutine state (cursors, current frame); to
// replay one tape concurrently, give each goroutine its own Replayer
// over the shared immutable Tape.
type Replayer struct {
	t *Tape

	rt       *vm.Runtime
	classIDs []heap.ClassID
	// table maps allocation-sequence index → handle; table[0] = Nil.
	table []heap.HandleID
	// seen[i] reports whether string-table entry i has been interned,
	// i.e. already owns a table slot.
	seen []bool

	// vals is the tape's decoded operand array (shared, read-only);
	// bad is the decode error, reported by Run. A flat index into vals
	// is the whole per-operand cost of the inner loop.
	vals []uint64
	bad  error
	pos  int // next opcode in t.ops
	apos int // next operand in vals
	cur  *vm.Frame
	// live is, per thread ID, the locals of the frames opCall pushed and
	// has not yet returned from.
	live [vm.MaxThreads + 1]int

	// bodyFn is the one Call body, stored so nested opCall decoding
	// does not allocate a closure per call.
	bodyFn func(f *vm.Frame) heap.HandleID
}

// NewReplayer prepares a replayer for t, pre-sizing all per-run state.
func NewReplayer(t *Tape) *Replayer {
	r := &Replayer{
		t:        t,
		classIDs: make([]heap.ClassID, len(t.classes)),
		table:    make([]heap.HandleID, 1, t.allocs+1),
		seen:     make([]bool, len(t.strings)),
	}
	r.vals, r.bad = t.operands()
	r.bodyFn = r.body
	return r
}

// Run replays the tape through rt, which must be freshly constructed
// or Reset. The recorded class table is defined first (ClassIDs come
// out identical to the recording run's because definition order is the
// id); then the op stream is decoded and fed through the same Runtime
// entry points the original driver used. A malformed tape returns an
// error; a runtime failure the original driver would have panicked on
// (heap exhaustion under MustNew semantics) panics identically.
func (r *Replayer) Run(rt *vm.Runtime) (err error) {
	if r.bad != nil {
		return r.bad
	}
	defer func() {
		if p := recover(); p != nil {
			te, ok := p.(*tapeErr)
			if !ok {
				panic(p)
			}
			err = te
		}
	}()

	r.rt = rt
	for i, c := range r.t.classes {
		r.classIDs[i] = rt.Heap.DefineClass(c)
	}
	r.table = r.table[:1]
	r.table[0] = heap.Nil
	for i := range r.seen {
		r.seen[i] = false
	}
	r.pos, r.apos = 0, 0
	r.cur = rt.StaticFrame()
	r.live = [vm.MaxThreads + 1]int{}

	r.exec(false)
	if r.pos != len(r.t.ops) {
		fail("stopped at op %d of %d", r.pos, len(r.t.ops))
	}
	return nil
}

// exec decodes and executes ops until the stream ends (top level) or
// an opReturn closes the current Call body (inBody). It returns the
// body's result; the top level returns Nil.
func (r *Replayer) exec(inBody bool) heap.HandleID {
	for r.pos < len(r.t.ops) {
		op := r.t.ops[r.pos]
		r.pos++
		switch op {
		case opSetFrame:
			tid := int(r.arg())
			depth := int(r.arg())
			r.cur = r.frameAt(tid, depth)
		case opNewThread:
			if n := len(r.rt.Threads()); n == vm.MaxThreads {
				fail("thread %d at op %d: a runtime holds at most %d", n+1, r.pos-1, vm.MaxThreads)
			}
			t := r.rt.NewThread(r.argUpTo(vm.MaxLocals, errLocals))
			r.cur = t.Top()
		case opCall:
			th := r.thread(int(r.arg()))
			nlocals := r.argUpTo(vm.MaxLocals, errLocals)
			th.Call(nlocals, r.bodyFn)
			r.cur = th.Top()
		case opReturn:
			if !inBody {
				fail("return outside a call at op %d", r.pos-1)
			}
			return r.ref()
		case opAlloc:
			c := r.class(int(r.arg()))
			extra := r.argUpTo(heap.MaxArenaBytes, errExtra)
			var id heap.HandleID
			var err error
			if extra == 0 {
				id, err = r.cur.New(c)
			} else {
				id, err = r.cur.NewArray(c, extra)
			}
			if err != nil {
				panic(err)
			}
			r.table = append(r.table, id)
		case opPutField:
			r.cur.PutField(r.ref(), int(r.arg()), r.ref())
		case opGetField:
			r.cur.GetField(r.ref(), int(r.arg()))
		case opSetLocal:
			r.cur.SetLocal(int(r.arg()), r.ref())
		case opPutStatic:
			r.cur.PutStatic(int(r.arg()), r.ref())
		case opGetStatic:
			r.cur.GetStatic(int(r.arg()))
		case opStaticSlot:
			r.rt.StaticSlot(r.str())
		case opIntern:
			si := r.strIndex()
			c := r.class(int(r.arg()))
			id, err := r.cur.Intern(r.t.strings[si], c)
			if err != nil {
				panic(err)
			}
			if !r.seen[si] {
				r.seen[si] = true
				r.table = append(r.table, id)
			}
		case opNativePin:
			r.cur.NativePin(r.ref())
		case opForget:
			r.cur.Forget(r.ref())
		case opForceCollect:
			r.rt.ForceCollect()
		default:
			fail("bad opcode %d at op %d", op, r.pos-1)
		}
	}
	if inBody {
		fail("truncated: stream ended inside a call body")
	}
	return heap.Nil
}

// body is the shared Thread.Call body: it executes ops until the
// matching opReturn. The frame handed in by Call is the new current
// frame, exactly as CallBegin re-pointed the recorder's.
func (r *Replayer) body(f *vm.Frame) heap.HandleID {
	r.cur = r.enter(f)
	return r.leave(f, r.exec(true))
}

// enter admits the frame an opCall pushed, and panics once its thread
// holds more than vm.MaxFrames frames or its calls' frames more than
// vm.MaxLiveLocals locals: each opCall nests exec on the Go stack.
func (r *Replayer) enter(f *vm.Frame) *vm.Frame {
	if f.Depth > vm.MaxFrames {
		panic(errFrames)
	}
	n := &r.live[f.Thread.ID]
	if *n += f.NumLocals(); *n > vm.MaxLiveLocals {
		panic(errLiveLocals)
	}
	return f
}

// leave releases f's locals as its body returns ret.
func (r *Replayer) leave(f *vm.Frame, ret heap.HandleID) heap.HandleID {
	r.live[f.Thread.ID] -= f.NumLocals()
	return ret
}

// The pre-built errors keep the operand readers within the
// inlining budget (panic on a prebuilt value costs the inliner almost
// nothing; a fail(...) call would not).
var (
	errUnderflow  = &tapeErr{msg: "operand stream underflow"}
	errRefRange   = &tapeErr{msg: "ref beyond recorded allocations"}
	errStrRange   = &tapeErr{msg: "string beyond the string table"}
	errLocals     = &tapeErr{msg: fmt.Sprintf("nlocals above vm.MaxLocals (%d)", vm.MaxLocals)}
	errExtra      = &tapeErr{msg: fmt.Sprintf("array length above heap.MaxArenaBytes (%d)", heap.MaxArenaBytes)}
	errFrames     = &tapeErr{msg: fmt.Sprintf("call depth above vm.MaxFrames (%d)", vm.MaxFrames)}
	errLiveLocals = &tapeErr{msg: fmt.Sprintf("a thread's live locals above vm.MaxLiveLocals (%d)", vm.MaxLiveLocals)}
)

// arg reads the next operand. Inlined into exec's switch.
func (r *Replayer) arg() uint64 {
	p := r.apos
	if p >= len(r.vals) {
		panic(errUnderflow)
	}
	r.apos = p + 1
	return r.vals[p]
}

// ref reads an operand as an allocation-sequence index and resolves it
// to the handle that allocation produced in this run.
func (r *Replayer) ref() heap.HandleID {
	i := r.arg()
	if i >= uint64(len(r.table)) {
		panic(errRefRange)
	}
	return r.table[i]
}

// argUpTo reads an operand that sizes runtime state and panics with e
// above max: a frame's locals (vm.MaxLocals) or an array's extra slots
// (heap.MaxArenaBytes, like a class's fields in Decode, so no instance
// size overflows and the arena refuses whatever does not fit).
func (r *Replayer) argUpTo(max uint64, e *tapeErr) int {
	n := r.arg()
	if n > max {
		panic(e)
	}
	return int(n)
}

func (r *Replayer) thread(tid int) *vm.Thread {
	ts := r.rt.Threads()
	if tid < 1 || tid > len(ts) {
		fail("thread %d out of range (have %d)", tid, len(ts))
	}
	return ts[tid-1]
}

func (r *Replayer) frameAt(tid, depth int) *vm.Frame {
	if tid == 0 {
		return r.rt.StaticFrame()
	}
	t := r.thread(tid)
	if depth < 1 || depth > t.Depth() {
		fail("frame depth %d out of range on thread %d", depth, tid)
	}
	return t.FrameAt(depth)
}

func (r *Replayer) class(ci int) heap.ClassID {
	if ci < 0 || ci >= len(r.classIDs) {
		fail("class %d out of range (have %d)", ci, len(r.classIDs))
	}
	return r.classIDs[ci]
}

// strIndex reads a string-table index.
func (r *Replayer) strIndex() int {
	si := r.arg()
	if si >= uint64(len(r.t.strings)) {
		panic(errStrRange)
	}
	return int(si)
}

func (r *Replayer) str() string { return r.t.strings[r.strIndex()] }
