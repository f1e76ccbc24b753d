package tape

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Recorder captures a runtime's driver-facing operation stream into a
// Tape. It implements vm.OpRecorder; NewRecorder attaches it, Finish
// detaches it and seals the tape.
//
// Recording assumes the driver observes handle discipline (it never
// passes a freed handle back into the runtime): operand encoding maps
// live handles to allocation-sequence indices, and a freed handle's
// mapping is only overwritten when the handle is reused.
//
// Recording only observes, so a recorder may stop early: one given an
// op limit (MaxOps) abandons itself on reaching it. The run carries on
// undisturbed and Finish reports nil.
//
// A spent recorder — finished or abandoned — can record again: Restart
// attaches it to another fresh runtime and reuses its buffers, so a
// caller that records many runs grows its streams and tables once.
type Recorder struct {
	rt   *vm.Runtime
	meta Meta

	// limit is the op count at which emit abandons the recording; 0 —
	// no limit, or abandoned already — never matches, since emit
	// compares after appending.
	limit     int
	abandoned bool

	ops  []byte
	args []byte
	// idx maps HandleID → 1-based allocation-sequence index. Freed
	// handles leave stale entries behind, which is safe exactly
	// because drivers never reference freed objects; the entry is
	// rewritten when the handle slot is reused by a later allocation.
	idx    []int32
	allocs int

	strIdx  map[string]int
	strings []string
	// interned tracks which contents already carry an allocation
	// index, so an Intern hit on a recycled handle id cannot be
	// mistaken for a fresh interning.
	interned map[string]bool

	// cur is the frame the next frame-addressed op applies to; ops on
	// any other frame are preceded by an explicit opSetFrame.
	cur *vm.Frame
}

var _ vm.OpRecorder = (*Recorder)(nil)

// NewRecorder attaches a recorder to rt, which must be freshly
// constructed or Reset: the stream cannot describe pre-existing
// threads or objects. Class definitions and static-slot interning that
// happen after attachment (jasm's Bind, a workload's prologue) are
// captured — classes via the Finish snapshot, slots via the stream.
//
// NewRecorder builds its recorder in place instead of calling Restart.
// It inlines into its callers, and the one in cgrun's runOne sits above
// a workload's whole stack: built through Restart, that frame shrank
// by 8 bytes and raytrace at size 100 ran 35 % slower under cgrun (68
// against 92 ms, 12 alternated runs, 2-vCPU Xeon VM).
func NewRecorder(rt *vm.Runtime, meta Meta) *Recorder {
	if rt.Instr() != 0 || len(rt.Threads()) != 0 {
		panic("tape: recorder attached to a runtime that already ran")
	}
	r := &Recorder{
		rt:       rt,
		meta:     meta,
		strIdx:   make(map[string]int),
		interned: make(map[string]bool),
		cur:      rt.StaticFrame(),
	}
	rt.SetRecorder(r)
	return r
}

// Restart attaches a spent recorder to rt, under the same terms as
// NewRecorder, for a new recording: the streams and tables empty but
// keep their capacity, and the op limit is cleared. Tapes the recorder
// published earlier are unaffected (Finish copies). A recorder still
// attached to a runtime mid-run must not be restarted, and neither may
// one whose run panicked.
func (r *Recorder) Restart(rt *vm.Runtime, meta Meta) {
	if rt.Instr() != 0 || len(rt.Threads()) != 0 {
		panic("tape: recorder attached to a runtime that already ran")
	}
	r.rt, r.meta, r.cur = rt, meta, rt.StaticFrame()
	r.limit, r.abandoned, r.allocs = 0, false, 0
	r.ops, r.args, r.idx, r.strings = r.ops[:0], r.args[:0], r.idx[:0], r.strings[:0]
	clear(r.strIdx)
	clear(r.interned)
	rt.SetRecorder(r)
}

// MaxOps bounds the recording: on emitting its n-th op the recorder
// abandons itself, so only a run shorter than n ops yields a tape. Call
// it right after NewRecorder or Restart. Without a limit a recorder
// records in full.
func (r *Recorder) MaxOps(n int) { r.limit = n }

// abandon detaches the recorder mid-run and empties the streams, keeping
// their capacity for a Restart. It runs inside a hook (emit called it),
// and that hook goes on to encode its operands, so the handle and string
// tables stay intact: what is left of the hook scribbles a few bytes
// into a recorder nobody will read. Every later hook site sees a nil
// recorder.
func (r *Recorder) abandon() {
	r.rt.SetRecorder(nil)
	r.ops, r.args, r.limit, r.abandoned = r.ops[:0], r.args[:0], 0, true
}

// Finish detaches the recorder and returns the sealed tape: copies of
// the recorded streams, sized to fit, plus a snapshot of the
// runtime's class table (in ClassID order, so a replay's DefineClass
// calls reproduce the ids). The tape shares no memory with the
// recorder, which a Restart may fill again. Meta.Threads defaults to the
// observed thread count when the caller left it zero. It returns nil
// when the recording reached its op limit and abandoned itself.
func (r *Recorder) Finish() *Tape {
	if r.abandoned {
		return nil
	}
	r.rt.SetRecorder(nil)
	h := r.rt.Heap
	classes := make([]heap.Class, h.NumClasses())
	for i := range classes {
		classes[i] = h.ClassDef(heap.ClassID(i))
	}
	meta := r.meta
	if meta.Threads == 0 {
		meta.Threads = len(r.rt.Threads())
	}
	return &Tape{
		Meta:    meta,
		classes: classes,
		strings: slices.Clone(r.strings),
		ops:     slices.Clone(r.ops),
		args:    slices.Clone(r.args),
		allocs:  r.allocs,
	}
}

func (r *Recorder) emit(op byte) {
	r.ops = append(r.ops, op)
	if len(r.ops) == r.limit {
		r.abandon()
	}
}
func (r *Recorder) arg(v uint64) { r.args = binary.AppendUvarint(r.args, v) }
func (r *Recorder) argI(v int)   { r.arg(uint64(v)) }

// ref encodes a handle operand as its allocation-sequence index.
func (r *Recorder) ref(id heap.HandleID) uint64 {
	if id == heap.Nil {
		return 0
	}
	if int(id) >= len(r.idx) || r.idx[id] == 0 {
		panic(fmt.Sprintf("tape: operand handle %d has no recorded allocation", id))
	}
	return uint64(r.idx[id])
}

// noteAlloc assigns the next allocation-sequence index to id.
func (r *Recorder) noteAlloc(id heap.HandleID) {
	r.allocs++
	for int(id) >= len(r.idx) {
		r.idx = append(r.idx, 0)
	}
	r.idx[id] = int32(r.allocs)
}

// str interns s into the tape's string table.
func (r *Recorder) str(s string) uint64 {
	if i, ok := r.strIdx[s]; ok {
		return uint64(i)
	}
	i := len(r.strings)
	r.strIdx[s] = i
	r.strings = append(r.strings, s)
	return uint64(i)
}

// frame makes f the stream's current frame, emitting opSetFrame when
// the target actually changes. Pointer identity is exact here: cur is
// always re-pointed at push/pop boundaries (CallBegin/CallEnd,
// NewThread), so it can never dangle into the frame pool.
func (r *Recorder) frame(f *vm.Frame) {
	if f == r.cur {
		return
	}
	r.cur = f
	r.emit(opSetFrame)
	if f.Thread == nil {
		r.arg(0)
		r.arg(0)
		return
	}
	r.argI(f.Thread.ID)
	r.argI(f.Depth)
}

func (r *Recorder) NewThread(t *vm.Thread, nlocals int) {
	r.emit(opNewThread)
	r.argI(nlocals)
	r.cur = t.Top()
}

func (r *Recorder) CallBegin(t *vm.Thread, callee *vm.Frame, nlocals int) {
	r.emit(opCall)
	r.argI(t.ID)
	r.argI(nlocals)
	r.cur = callee
}

func (r *Recorder) CallEnd(t *vm.Thread, ret heap.HandleID) {
	r.emit(opReturn)
	r.arg(r.ref(ret))
	r.cur = t.Top()
}

func (r *Recorder) Alloc(f *vm.Frame, c heap.ClassID, extra int, id heap.HandleID) {
	r.frame(f)
	r.emit(opAlloc)
	r.argI(int(c))
	r.argI(extra)
	r.noteAlloc(id)
}

func (r *Recorder) PutField(f *vm.Frame, obj heap.HandleID, slot int, val heap.HandleID) {
	r.frame(f)
	r.emit(opPutField)
	r.arg(r.ref(obj))
	r.argI(slot)
	r.arg(r.ref(val))
}

func (r *Recorder) GetField(f *vm.Frame, obj heap.HandleID, slot int) {
	r.frame(f)
	r.emit(opGetField)
	r.arg(r.ref(obj))
	r.argI(slot)
}

func (r *Recorder) SetLocal(f *vm.Frame, slot int, val heap.HandleID) {
	r.frame(f)
	r.emit(opSetLocal)
	r.argI(slot)
	r.arg(r.ref(val))
}

func (r *Recorder) PutStatic(f *vm.Frame, slot int, val heap.HandleID) {
	r.frame(f)
	r.emit(opPutStatic)
	r.argI(slot)
	r.arg(r.ref(val))
}

func (r *Recorder) GetStatic(f *vm.Frame, slot int) {
	r.frame(f)
	r.emit(opGetStatic)
	r.argI(slot)
}

func (r *Recorder) StaticSlot(name string) {
	r.emit(opStaticSlot)
	r.arg(r.str(name))
}

func (r *Recorder) Intern(f *vm.Frame, content string, c heap.ClassID, id heap.HandleID) {
	r.frame(f)
	r.emit(opIntern)
	r.arg(r.str(content))
	r.argI(int(c))
	if !r.interned[content] {
		r.interned[content] = true
		r.noteAlloc(id)
	}
}

func (r *Recorder) NativePin(f *vm.Frame, id heap.HandleID) {
	r.frame(f)
	r.emit(opNativePin)
	r.arg(r.ref(id))
}

func (r *Recorder) Forget(f *vm.Frame, id heap.HandleID) {
	r.frame(f)
	r.emit(opForget)
	r.arg(r.ref(id))
}

func (r *Recorder) ForceCollect() {
	r.emit(opForceCollect)
}
