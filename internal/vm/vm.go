// Package vm implements the managed-runtime substrate of the
// reproduction: stack frames, (green) threads, locals, statics, string
// interning and a native-code boundary, emitting exactly the event
// vocabulary the contaminated collector instruments in Sun's JDK 1.1.8
// interpreter (thesis §3.1.3):
//
//	object creation            -> Events.Alloc
//	putfield / aastore         -> Events.Ref
//	putstatic / intern / JNI   -> Events.StaticRef
//	areturn                    -> Events.Return
//	method return (frame pop)  -> Events.FramePop
//	a foreign object touch     -> Events.Access (thread-share detection)
//
// The runtime is collector-agnostic: a collector declares the events it
// wants as an Events descriptor (events.go) and owns all liveness
// policy; unsubscribed events cost nothing. Allocation failure
// triggers, in order, the collector's declared recycling fallback
// (§3.7), a full traditional collection, a compaction of the survivors
// (heap.Heap.Compact), and only then an out-of-memory error — the JDK
// allocator's cascade, plus the move its handles make cheap.
package vm

import (
	"fmt"
	"runtime"

	"repro/internal/heap"
	"repro/internal/obs"
)

// Frame is one method activation. Locals hold reference values only (the
// runtime does not model primitive locals; they are irrelevant to GC).
type Frame struct {
	// ID is a runtime-unique, monotonically increasing frame number.
	// Within one thread's live stack, a smaller ID is an older frame —
	// the ordering contamination compares. ID 0 is reserved for the
	// static pseudo-frame ("we view static references as stemming from a
	// program's initial stack frame").
	ID uint64
	// Depth is the frame's position on its thread's stack (root = 1).
	// The static pseudo-frame has depth 0.
	Depth int
	// Thread owns this frame; nil for the static pseudo-frame.
	Thread *Thread
	// GCHead is a collector-owned word, and to the runtime only zero or
	// not: CG stores the head of the frame's dependent equilive-set list
	// here, as a slot in its own set table, never a handle ("each frame
	// is equipped with a reference to a list of its dependent equilive
	// blocks", §3.1.2). The runtime zeroes it when the frame is pushed
	// and fires FramePop only for a frame that left it non-zero.
	GCHead int32
	// Index is this record's slot in the runtime's frame registry:
	// rt.FrameAt(f.Index) == f until Reset, across reuse by later calls
	// at the record's depth, so a collector names a frame in 4
	// pointer-free bytes. Static frame = 0.
	Index int32

	locals []heap.HandleID
	// operands are JNI-style local references: every handle the runtime
	// hands to driver (Go) code — allocation results, field/static
	// reads, call returns — is rooted here until the frame pops, because
	// the driver may hold it in a Go variable the collectors cannot see.
	// This mirrors how Sun's JVM pins local references handed across the
	// native boundary (§3.3). Forget is the DeleteLocalRef analog.
	// Entries may be Nil (forgotten in place); root consumers skip Nil.
	operands []heap.HandleID
	// opRing holds the most recently rooted handles: addOperand skips a
	// handle already in the ring, so a raytrace-style loop re-reading
	// the same field thousands of times roots it once instead of
	// growing operands without bound. Nil slots match nothing.
	opRing [opRingSize]heap.HandleID
	opPos  uint32 // next ring slot (mod opRingSize)
	opNils int32  // forgotten-in-place entries awaiting compaction
	rt     *Runtime
}

// opRingSize is the operand dedup window. A power of two keeps the ring
// update branch-free; 4 covers the hot re-root patterns (obj, a couple
// of fields, the loop temp) the workload analogs exhibit.
const opRingSize = 4

// Runtime glues heap, threads, statics and the collector together.
type Runtime struct {
	Heap *heap.Heap

	// The bound event table, one field per slot: Attach copies the
	// descriptor's non-nil slots here so each dispatch site is a load,
	// a nil check and (when subscribed) a direct indirect call —
	// no interface itab lookup on the per-event path.
	onAlloc       func(id heap.HandleID, f *Frame)
	onRef         func(src, dst heap.HandleID)
	onStaticRef   func(dst heap.HandleID)
	onReturn      func(val heap.HandleID, caller *Frame)
	onFramePop    func(f *Frame) int
	onAccess      func(id heap.HandleID, t *Thread)
	allocFallback func(c heap.ClassID, extra int) (heap.HandleID, bool)
	collect       func() int
	detach        func()
	name          string
	source        any

	threads     []*Thread
	statics     []heap.HandleID
	staticNames map[string]int
	interned    map[string]heap.HandleID
	// internedRoots mirrors the intern table for root enumeration: the
	// table is interpreter-internal state invisible to the collectors
	// otherwise — exactly the §3.2 problem ("the references from the
	// hash table are essentially static").
	internedRoots []heap.HandleID
	staticFrame   *Frame
	// frames is the frame registry: every Frame record created since New
	// or Reset, at its Index (it grows only with the deepest stack).
	frames   []*Frame
	frameSeq uint64
	instr    uint64
	gcCycles int

	// timeline records each collection cycle's phase breakdown (pause /
	// mark / sweep nanoseconds, object counts). Embedded — not pointered
	// — so the zero Runtime records without allocating; collectors
	// refine the mark boundary via Timeline().CycleMarkDone.
	timeline obs.Timeline

	// rec, when non-nil, receives the driver-facing operation stream
	// (tape recording; see record.go). Every dispatch site is one
	// predictable never-taken branch while detached.
	rec OpRecorder

	// gcEvery/countdown implement SetGCEvery as a decrement instead of
	// a modulo on every step: countdown is 0 when the forced-collection
	// instrumentation is off, so the steady-state step cost is one load
	// and one never-taken branch.
	gcEvery   uint64
	countdown uint64

	// popAlways, when set, dispatches FramePop even for frames whose
	// GCHead is zero (the descriptor's AllPops capability; true only
	// when a FramePop slot is bound).
	popAlways bool

	// accessOn gates Access dispatch. While false the runtime has
	// proved every Access call would be a no-op: a single thread
	// exists and every object was allocated by it, so thread-share
	// detection (§3.3) can observe nothing. It flips — once, and
	// permanently — on the second NewThread or on an allocation owned
	// by the static pseudo-frame (whose owner differs from any thread);
	// events before the flip are exactly the ones that were provably
	// no-ops, so eliding them is semantics-preserving (DESIGN.md §5).
	// It can only ever flip to accessArmed: with no Access slot bound
	// the dispatch stays elided for the life of the run. Past the gate,
	// touch filters each event by the owner table.
	accessOn bool
	// accessArmed records whether the descriptor bound an Access slot.
	accessArmed bool
	// accessAll is the descriptor's AllAccess: touch dispatches every
	// event the gate lets through, owner or not.
	accessAll bool
	// owners is the thread-ownership table, one byte per handle id: the
	// Thread.ID of the thread whose frame allocated the object, 0 for
	// the static pseudo-frame, or disowned once a collector has called
	// Disown. Every allocation writes its entry while an Access slot is
	// bound, so an entry is stale only for an id no live object holds.
	// It is drawn from heap.Mapped at the heap's HandleBound when the
	// first Access slot is bound, at full length, so the owner store is
	// a plain store that never grows; where there is no mapping it is a
	// Go slice that grows with the handle table (growOwners).
	owners []int8
	// ownersMapped is the mapping owners was drawn from (nil if none),
	// released by Release or, for a dropped runtime, by unmapOwners.
	ownersMapped []int8
	unmapOwners  runtime.Cleanup
	// accessBroken records that the single-thread proof failed (second
	// thread, or static-frame allocation). It is sticky for the life
	// of the run — Reset clears it, Attach does not — so attaching a
	// descriptor mid-run re-derives accessOn without forgetting that
	// the elision proof is already gone.
	accessBroken bool
}

// Thread is a green thread: a stack of frames driven directly by Go code
// (workloads interleave threads explicitly; preemption is irrelevant to
// the collector, only *which* thread touches an object matters).
type Thread struct {
	ID int
	rt *Runtime
	// stack is the thread's live frames, oldest first, and it is also
	// its frame pool: pop only shortens it, so past its length stand the
	// records the deepest calls so far left behind, and a call at depth d
	// reuses the one the last call at depth d used. A record is created
	// only when the thread goes deeper than it ever has, so the analogs'
	// steady stream of calls allocates nothing.
	stack []*Frame
}

// New creates a runtime over h governed by c's event table. The static
// pseudo-frame (frame 0) is created immediately and never pops.
func New(h *heap.Heap, c Collector) *Runtime {
	rt := &Runtime{
		Heap:        h,
		staticNames: make(map[string]int),
		interned:    make(map[string]heap.HandleID),
	}
	rt.staticFrame = &Frame{ID: 0, Depth: 0, rt: rt}
	rt.frames = []*Frame{rt.staticFrame}
	rt.Attach(c.Events())
	return rt
}

// Attach binds an event table into the runtime's dispatch sites: each
// non-nil slot is copied into its hot-path field, the capability fields
// re-derive the elision machinery (AllAccess, AllPops) and the forced-
// collection countdown (GCEvery) from the descriptor, and the
// descriptor's Attach hook runs last so the collector sees a fully
// wired runtime. New and Reset call it; attaching mid-run (only
// meaningful for instrumentation) replaces the collector and its
// declared capabilities but keeps heap, threads, statics and the
// already-broken single-thread proof intact. A mid-run swap requires
// that no live frame carries collector-armed state: a frame whose
// GCHead the outgoing collector armed still points into that
// collector's (now detached) tables, and the incoming collector would
// dereference it against its own empty ones. Swapping between
// stateful collectors mid-run is therefore unsupported — quiesce via
// Reset instead.
func (rt *Runtime) Attach(ev Events) {
	// The outgoing collector is unbound first, so a pooled
	// implementation can reclaim its side tables before the incoming
	// one (possibly of the same family) asks for a fresh set.
	if rt.detach != nil {
		rt.detach()
	}
	rt.detach = ev.Detach
	rt.name = ev.Name
	rt.source = ev.Collector
	rt.onAlloc = ev.Alloc
	rt.onRef = ev.Ref
	rt.onStaticRef = ev.StaticRef
	rt.onReturn = ev.Return
	rt.onFramePop = ev.FramePop
	rt.onAccess = ev.Access
	rt.allocFallback = ev.AllocFallback
	rt.collect = ev.Collect
	rt.accessArmed = ev.Access != nil
	rt.accessAll = ev.AllAccess
	rt.accessOn = rt.accessArmed && (ev.AllAccess || rt.accessBroken)
	if rt.accessArmed && len(rt.owners) < rt.Heap.HandleCap() {
		rt.growOwners()
	}
	rt.popAlways = ev.AllPops && ev.FramePop != nil
	if ev.Attach != nil {
		ev.Attach(rt)
	}
	rt.SetGCEvery(ev.GCEvery)
}

// CollectorName reports the bound event table's Name.
func (rt *Runtime) CollectorName() string { return rt.name }

// Collector returns the concrete collector behind the bound event
// table (the descriptor's Collector field); nil for the empty table.
func (rt *Runtime) Collector() any { return rt.source }

// Reset returns the runtime — and its heap — to the freshly constructed
// state over the same arena, attaching collector c in place of the old
// one. Tables and slices keep their capacity: a pooled execution shard
// resets between matrix cells instead of paying construction per cell.
// A reset runtime is observably identical to vm.New(heap, c) over a
// fresh heap of the same arena size (see TestEnginePooledDeterminism).
func (rt *Runtime) Reset(c Collector) {
	// The outgoing collector detaches while the heap still holds the
	// cell it served, so it can tell which of its records that cell wrote.
	if rt.detach != nil {
		rt.detach()
		rt.detach = nil
	}
	rt.Heap.Reset()
	rt.threads = rt.threads[:0]
	rt.statics = rt.statics[:0]
	clear(rt.staticNames)
	clear(rt.interned)
	rt.internedRoots = rt.internedRoots[:0]
	*rt.staticFrame = Frame{ID: 0, Depth: 0, rt: rt}
	clear(rt.frames[1:]) // the dropped threads' stacks held these records
	rt.frames = rt.frames[:1]
	rt.frameSeq = 0
	rt.instr = 0
	rt.gcCycles = 0
	rt.gcEvery, rt.countdown = 0, 0
	rt.accessBroken = false
	rt.rec = nil
	rt.timeline.Reset()
	rt.Attach(c.Events())
}

// Release ends a runtime nobody will run again: the collector detaches,
// so a pooled implementation takes its side tables back, and the heap
// unmaps its tables at once (heap.Heap.Release). The runtime must not be
// used afterwards.
func (rt *Runtime) Release() {
	if rt.detach != nil {
		rt.detach()
		rt.detach = nil
	}
	rt.unmapOwners.Stop()
	heap.Unmap(rt.ownersMapped)
	rt.owners, rt.ownersMapped = nil, nil
	rt.Heap.Release()
}

// disowned is the owners entry of an object a collector has disowned.
const disowned int8 = -1

// growOwners makes owners cover every handle id the heap can hand out
// before its table next grows. The first call maps the table at the
// heap's HandleBound, which no id reaches, so it never grows again;
// without a mapping it grows with the handle table, by its rule.
//
//go:noinline
func (rt *Runtime) growOwners() {
	if rt.owners == nil {
		if m := heap.Mapped[int8](rt.Heap.HandleBound()); m != nil {
			rt.ownersMapped, rt.owners = m, m[:cap(m)]
			rt.unmapOwners = runtime.AddCleanup(rt, heap.Unmap[int8], m)
			return
		}
	}
	n := rt.Heap.HandleCap()
	rt.owners = heap.Grow(rt.owners, n, n)
}

// touch is every Access dispatch site past the accessOn gate. It fires
// the slot when t touches an object that another thread, or the static
// pseudo-frame, allocated and that no collector has disowned — the
// foreign touch thread-share detection (§3.3) acts on — and under
// AllAccess on every touch. What it filters out is what a collector's
// own check of the same table would return from at once: an owner's
// touches, touches from no thread, and touches of disowned objects.
func (rt *Runtime) touch(id heap.HandleID, t *Thread) {
	if rt.accessAll || t != nil && rt.Foreign(id, t) {
		rt.onAccess(id, t)
	}
}

// Foreign reports whether t's touch of id is one the Access slot sees
// without AllAccess: t did not allocate id and nobody has disowned it.
// Valid while an Access slot is bound, for an id a live object holds.
func (rt *Runtime) Foreign(id heap.HandleID, t *Thread) bool {
	o := rt.owners[id]
	return o != int8(t.ID) && o != disowned
}

// Disown records that id is shared between threads: from now on no
// touch of it is dispatched to Access (but under AllAccess), until the
// id is allocated anew. A collector calls it for each object its
// thread-share detection demotes.
func (rt *Runtime) Disown(id heap.HandleID) { rt.owners[id] = disowned }

// Disowned reports whether Disown was called on id since its
// allocation.
func (rt *Runtime) Disowned(id heap.HandleID) bool { return rt.owners[id] == disowned }

// StaticFrame returns the immortal pseudo-frame 0.
func (rt *Runtime) StaticFrame() *Frame { return rt.staticFrame }

// FrameAt returns the frame record registered at slot i (Frame.Index).
func (rt *Runtime) FrameAt(i int32) *Frame { return rt.frames[i] }

// Instr reports the number of runtime operations executed so far.
func (rt *Runtime) Instr() uint64 { return rt.instr }

// GCCycles reports how many full (traditional) collections ran.
func (rt *Runtime) GCCycles() int { return rt.gcCycles }

// Timeline exposes the runtime's cycle recorder: collectors refine the
// mark/sweep boundary through it, and harnesses extract per-cell
// CycleStats after a run.
func (rt *Runtime) Timeline() *obs.Timeline { return &rt.timeline }

// SetGCEvery arranges a full collection every n runtime operations,
// counted from this call — the instrumentation behind the resetting
// experiment ("we instrumented the JVM to run garbage collection after
// a certain number of instructions", §4.7). n = 0 disables it. Call
// before driving work; the period restarts when set.
func (rt *Runtime) SetGCEvery(n uint64) {
	rt.gcEvery = n
	rt.countdown = n
}

// GCEvery reports the forced-collection period (0 = off).
func (rt *Runtime) GCEvery() uint64 { return rt.gcEvery }

// step counts one runtime operation and fires the periodic forced
// collection used by the resetting experiment. The countdown replaces
// the modulo the instrumentation check used to cost on every event.
func (rt *Runtime) step() {
	rt.instr++
	if rt.countdown != 0 {
		rt.countdown--
		if rt.countdown == 0 {
			rt.countdown = rt.gcEvery
			rt.forceCollect()
		}
	}
}

// Quiesce does nothing: a collection cycle never outlives the call that
// started it. It survives only because bench/ (frozen outside benchmark
// PRs) still calls it from walk.go and probes.go; the next benchmark PR
// deletes those calls and this method (ROADMAP).
func (rt *Runtime) Quiesce() {}

// ForceCollect runs a full traditional collection immediately; a
// collector with no Collect capability collects nothing. The cycle is
// synchronous: the storage is freed on return. The two clock readings
// bracketing the cycle (plus any mark-boundary reading the collector
// adds) are the only timing the runtime ever takes — never per event —
// so instrumentation stays off the steady-state paths.
func (rt *Runtime) ForceCollect() int {
	if rt.rec != nil {
		// Only direct driver calls are recorded: the allocation
		// cascade's internal collection (forceCollect) replays itself
		// when the failing allocation is re-driven.
		rt.rec.ForceCollect()
	}
	return rt.forceCollect()
}

// forceCollect is ForceCollect minus the tape-recording hook — the
// entry used by runtime-internal collection triggers.
func (rt *Runtime) forceCollect() int {
	rt.gcCycles++
	if rt.collect == nil {
		return 0
	}
	rt.timeline.CycleStart()
	freed := rt.collect()
	rt.timeline.CycleEnd(uint64(freed))
	return freed
}

// MaxThreads is the most threads one runtime creates: the owner table
// holds a thread ID in one signed byte per object. Every analog runs at
// most two.
const MaxThreads = 127

// NewThread creates a thread with a root frame holding nlocals locals;
// thread IDs run 1, 2, ... MaxThreads, and asking for thread 128 panics.
// The second thread flips the runtime to multithreaded dispatch: from
// here on an object's first touch by a thread that did not allocate it
// fires Access (thread-share detection can now observe something) —
// provided the collector subscribed an Access slot at all. The flip is
// deferred semantics firing exactly once — every elided event before it
// was a provable no-op, because the sole thread owned every object it
// could have touched.
func (rt *Runtime) NewThread(nlocals int) *Thread {
	if len(rt.threads) == MaxThreads {
		panic(fmt.Sprintf("vm: thread %d: a runtime holds at most %d threads", MaxThreads+1, MaxThreads))
	}
	t := &Thread{ID: len(rt.threads) + 1, rt: rt}
	rt.threads = append(rt.threads, t)
	if len(rt.threads) == 2 {
		rt.accessBroken = true
		rt.accessOn = rt.accessArmed
	}
	t.push(nlocals)
	if rt.rec != nil {
		rt.rec.NewThread(t, nlocals)
	}
	return t
}

// Threads returns the live thread list (root enumeration for tracing
// collectors).
func (rt *Runtime) Threads() []*Thread { return rt.threads }

// EachRootFrame visits every live frame of every thread, oldest frame
// first within each thread, preceded by the static pseudo-frame. A frame
// may be presented more than once with different root slices (locals,
// then operand references). This is the traversal order the resetting
// pass (§3.6) relies on: an object first reached from the oldest frame
// that references it receives the correct (most conservative) dependent
// frame.
func (rt *Runtime) EachRootFrame(fn func(f *Frame, roots []heap.HandleID)) {
	fn(rt.staticFrame, rt.statics)
	fn(rt.staticFrame, rt.internedRoots)
	for _, t := range rt.threads {
		for _, f := range t.stack {
			fn(f, f.locals)
			fn(f, f.operands)
		}
	}
}

// EachFrame visits every live frame exactly once: the static
// pseudo-frame, then each thread's stack oldest-first. Consumers that
// only need the frames (CG's rebuild pass walks their dependent-set
// lists) use this instead of deduplicating EachRootFrame's repeated
// presentations.
func (rt *Runtime) EachFrame(fn func(f *Frame)) {
	fn(rt.staticFrame)
	for _, t := range rt.threads {
		for _, f := range t.stack {
			fn(f)
		}
	}
}

// push activates a frame on t's stack: the record the last activation
// at this depth left past the stack's length, or, one level deeper than
// the thread has been before, a new record in the next registry slot.
func (t *Thread) push(nlocals int) *Frame {
	n := len(t.stack)
	var f *Frame
	if n < cap(t.stack) {
		f = t.stack[:n+1][n]
	}
	// The re-slices assign a slice to itself, which the compiler turns
	// into a length store with no write barrier.
	if f != nil {
		t.stack = t.stack[:n+1]
	} else {
		f = t.newFrame()
	}
	if cap(f.locals) >= nlocals {
		f.locals = f.locals[:nlocals]
		// An indexed loop: the range form compiles to a memclr call,
		// which costs more than the one or two slots a frame has.
		l := f.locals
		for i := 0; i < len(l); i++ {
			l[i] = heap.Nil
		}
	} else {
		f.locals = make([]heap.HandleID, nlocals)
	}
	f.operands = f.operands[:0]
	f.opRing = [opRingSize]heap.HandleID{}
	f.opPos = 0
	f.opNils = 0
	t.rt.frameSeq++
	f.ID = t.rt.frameSeq
	f.Depth = n + 1
	f.GCHead = 0
	return f
}

// newFrame registers a record for a depth t has never reached and pushes
// it: the cold half of push, kept out of line so the hot half stays small.
//
//go:noinline
func (t *Thread) newFrame() *Frame {
	f := &Frame{Thread: t, Index: int32(len(t.rt.frames)), rt: t.rt}
	t.rt.frames = append(t.rt.frames, f)
	t.stack = append(t.stack, f)
	return f
}

// pop removes t's youngest frame, firing FramePop when any
// collector-owned state is armed on it. The record stays past the
// stack's length for the next call at its depth. Collectors must not
// retain the *Frame past FramePop (CG's invariant: no equilive set may
// depend on a popped frame).
func (t *Thread) pop() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	if f.GCHead != 0 || t.rt.popAlways {
		if fp := t.rt.onFramePop; fp != nil {
			fp(f)
		}
	}
}

// Top returns the active frame.
func (t *Thread) Top() *Frame { return t.stack[len(t.stack)-1] }

// Depth reports the stack depth.
func (t *Thread) Depth() int { return len(t.stack) }

// Call pushes a frame with nlocals locals, runs body, fires areturn
// semantics for a non-nil result, pops the frame and returns the result.
// It is the runtime's method-invocation primitive: the Go closure plays
// the role of the method body, reading arguments from the locals the
// caller pre-loads via PassArg or from captured variables.
func (t *Thread) Call(nlocals int, body func(f *Frame) heap.HandleID) heap.HandleID {
	f := t.push(nlocals)
	if rec := t.rt.rec; rec != nil {
		rec.CallBegin(t, f, nlocals)
	}
	ret := body(f)
	if ret != heap.Nil {
		// areturn: the value's block must survive at least as long as
		// the caller's frame (§3.1.3).
		var caller *Frame
		if len(t.stack) >= 2 {
			caller = t.stack[len(t.stack)-2]
		} else {
			caller = t.rt.staticFrame
		}
		t.rt.step()
		if fn := t.rt.onReturn; fn != nil {
			fn(ret, caller)
		}
		if caller != t.rt.staticFrame {
			caller.addOperand(ret)
		}
	}
	t.pop()
	if rec := t.rt.rec; rec != nil {
		rec.CallEnd(t, ret)
	}
	return ret
}

// addOperand roots a handle handed to driver code in this frame. The
// ring check skips handles rooted within the last opRingSize adds —
// already on the operand list, so a second entry buys nothing — which
// bounds operand growth for loops that re-read the same objects. id is
// never Nil (all call sites check), so empty ring slots match nothing.
func (f *Frame) addOperand(id heap.HandleID) {
	if id == f.opRing[0] || id == f.opRing[1] || id == f.opRing[2] || id == f.opRing[3] {
		return
	}
	f.opRing[f.opPos&(opRingSize-1)] = id
	f.opPos++
	f.operands = append(f.operands, id)
}

// Forget drops every operand-reference this frame holds on id — the
// DeleteLocalRef analog. Locals and object fields referencing id are
// unaffected.
//
// Each call must scan the whole list (every occurrence is dropped),
// but entries are forgotten in place (root consumers skip Nil) and the
// list compacts once when half of it is dead, so a driver forgetting
// many operands pays one compaction instead of a full rewrite per
// call — the write traffic is amortized even though the read scan is
// inherently per-call linear.
func (f *Frame) Forget(id heap.HandleID) {
	if rec := f.rt.rec; rec != nil {
		rec.Forget(f, id)
	}
	for i := range f.opRing {
		if f.opRing[i] == id {
			// The ring must never claim a handle the operand list no
			// longer roots: a later addOperand(id) has to re-append.
			f.opRing[i] = heap.Nil
		}
	}
	for i, o := range f.operands {
		if o == id {
			f.operands[i] = heap.Nil
			f.opNils++
		}
	}
	if int(f.opNils)*2 >= len(f.operands) {
		out := f.operands[:0]
		for _, o := range f.operands {
			if o != heap.Nil {
				out = append(out, o)
			}
		}
		f.operands = out
		f.opNils = 0
	}
}

// CallVoid is Call for methods that return no reference: push, body,
// pop, with the recorder told what Call would tell it for a Nil result
// and no second closure around body.
func (t *Thread) CallVoid(nlocals int, body func(f *Frame)) {
	f := t.push(nlocals)
	if rec := t.rt.rec; rec != nil {
		rec.CallBegin(t, f, nlocals)
	}
	body(f)
	t.pop()
	if rec := t.rt.rec; rec != nil {
		rec.CallEnd(t, heap.Nil)
	}
}

// Local reads local slot i.
func (f *Frame) Local(i int) heap.HandleID { return f.locals[i] }

// SetLocal writes local slot i. Storing into a local is a stack (root)
// reference: it fires no contamination, only thread-access detection.
func (f *Frame) SetLocal(i int, v heap.HandleID) {
	if rec := f.rt.rec; rec != nil {
		rec.SetLocal(f, i, v)
	}
	f.rt.step()
	if f.rt.accessOn && v != heap.Nil {
		f.rt.touch(v, f.Thread)
	}
	f.locals[i] = v
}

// NumLocals reports the frame's local count.
func (f *Frame) NumLocals() int { return len(f.locals) }

// Runtime returns the owning runtime.
func (f *Frame) Runtime() *Runtime { return f.rt }

// New allocates an instance of class c while f is the active frame,
// driving the §3.7 fallback cascade on exhaustion:
// recycled storage, then a full collection, then error.
//
// The tape hook lives here (and in NewArray) rather than in alloc so
// that Intern's internal allocation records as one opIntern, never as
// an extra opAlloc.
func (f *Frame) New(c heap.ClassID) (heap.HandleID, error) {
	id, err := f.alloc(c, 0)
	if err == nil && f.rt.rec != nil {
		f.rt.rec.Alloc(f, c, 0, id)
	}
	return id, err
}

// NewArray allocates a reference array of n elements of array class c.
func (f *Frame) NewArray(c heap.ClassID, n int) (heap.HandleID, error) {
	id, err := f.alloc(c, n)
	if err == nil && f.rt.rec != nil {
		f.rt.rec.Alloc(f, c, n, id)
	}
	return id, err
}

func (f *Frame) alloc(c heap.ClassID, extra int) (heap.HandleID, error) {
	rt := f.rt
	rt.step()
	if f.Thread == nil {
		// A static-pseudo-frame allocation is owned by no thread, so
		// the first thread to touch it must be observed as sharing:
		// access dispatch can no longer be elided (when subscribed).
		rt.accessBroken = true
		rt.accessOn = rt.accessArmed
	}
	id, err := rt.Heap.Alloc(c, extra)
	if err != nil {
		if id, err = rt.refill(c, extra); err != nil {
			return heap.Nil, err
		}
	}
	if rt.onAlloc != nil {
		rt.onAlloc(id, f)
	}
	if rt.accessArmed {
		// The new object's owner: f's thread, or 0 for the static
		// pseudo-frame, whose objects every thread touches as foreign.
		if int(id) >= len(rt.owners) {
			rt.growOwners()
		}
		if t := f.Thread; t == nil {
			rt.owners[id] = 0
		} else {
			rt.owners[id] = int8(t.ID)
			if rt.accessOn {
				rt.touch(id, t)
			}
		}
	}
	f.addOperand(id)
	return id, nil
}

// refill is alloc's cold half, the cascade after the arena refused an
// instance of c: the collector's recycled storage, else a full
// collection and a retry, else a compaction and a last retry.
//
//go:noinline
func (rt *Runtime) refill(c heap.ClassID, extra int) (heap.HandleID, error) {
	if rt.allocFallback != nil {
		if id, ok := rt.allocFallback(c, extra); ok {
			return id, nil
		}
	}
	rt.forceCollect()
	id, err := rt.Heap.Alloc(c, extra)
	if err != nil && rt.Heap.Compact() {
		// Survivors scattered one to a page can refuse a request at low
		// occupancy; moved together, they free whole pages.
		id, err = rt.Heap.Alloc(c, extra)
	}
	if err != nil {
		return heap.Nil, rt.exhausted(c, extra, err)
	}
	return id, nil
}

// exhausted describes an allocation refused after a full collection:
// what was asked for and how full the arena was, so a fragmentation
// failure (refused at 43 % occupancy) reads unlike a heap too small.
func (rt *Runtime) exhausted(c heap.ClassID, extra int, err error) error {
	in := rt.Heap.Arena().Info()
	return fmt.Errorf("vm: heap exhausted after full collection: refused %d B at %d %% occupancy (alloc %d / heap %d / capacity %d): %w",
		rt.Heap.InstanceBytes(c, extra), 100*in.AllocBytes/in.Capacity,
		in.AllocBytes, in.HeapBytes, in.Capacity, err)
}

// MustNew is New for workloads whose heap budget is known sufficient.
func (f *Frame) MustNew(c heap.ClassID) heap.HandleID {
	id, err := f.New(c)
	if err != nil {
		panic(err)
	}
	return id
}

// MustNewArray is NewArray with the same contract as MustNew.
func (f *Frame) MustNewArray(c heap.ClassID, n int) heap.HandleID {
	id, err := f.NewArray(c, n)
	if err != nil {
		panic(err)
	}
	return id
}

// PutField implements `obj.slot = val` (putfield / aastore): it fires
// contamination between obj and val and the thread-access events, then
// performs the store.
func (f *Frame) PutField(obj heap.HandleID, slot int, val heap.HandleID) {
	rt := f.rt
	if rt.rec != nil {
		rt.rec.PutField(f, obj, slot, val)
	}
	rt.step()
	if rt.accessOn {
		rt.touch(obj, f.Thread)
		if val != heap.Nil {
			rt.touch(val, f.Thread)
		}
	}
	if val != heap.Nil && rt.onRef != nil {
		rt.onRef(obj, val)
	}
	rt.Heap.SetRef(obj, slot, val)
}

// GetField implements `obj.slot` (getfield / aaload).
func (f *Frame) GetField(obj heap.HandleID, slot int) heap.HandleID {
	rt := f.rt
	if rt.rec != nil {
		rt.rec.GetField(f, obj, slot)
	}
	rt.step()
	if rt.accessOn {
		rt.touch(obj, f.Thread)
	}
	v := rt.Heap.GetRef(obj, slot)
	if v != heap.Nil {
		if rt.accessOn {
			rt.touch(v, f.Thread)
		}
		f.addOperand(v)
	}
	return v
}

// StaticSlot interns a static-variable name, returning its slot index.
func (rt *Runtime) StaticSlot(name string) int {
	if i, ok := rt.staticNames[name]; ok {
		return i
	}
	i := len(rt.statics)
	rt.staticNames[name] = i
	rt.statics = append(rt.statics, heap.Nil)
	if rt.rec != nil {
		// Only slot creation is recorded: a lookup hit steps nothing
		// and fires nothing, so it has no place in the stream.
		rt.rec.StaticSlot(name)
	}
	return i
}

// PutStatic implements `static name = val` (putstatic): the referenced
// object's block joins the frame-0 dependent list.
func (f *Frame) PutStatic(slot int, val heap.HandleID) {
	rt := f.rt
	if rt.rec != nil {
		rt.rec.PutStatic(f, slot, val)
	}
	rt.step()
	if val != heap.Nil {
		if rt.accessOn {
			rt.touch(val, f.Thread)
		}
		if rt.onStaticRef != nil {
			rt.onStaticRef(val)
		}
	}
	rt.statics[slot] = val
}

// GetStatic implements `static name` (getstatic).
func (f *Frame) GetStatic(slot int) heap.HandleID {
	rt := f.rt
	if rt.rec != nil {
		rt.rec.GetStatic(f, slot)
	}
	rt.step()
	v := rt.statics[slot]
	if v != heap.Nil {
		if rt.accessOn {
			rt.touch(v, f.Thread)
		}
		f.addOperand(v)
	}
	return v
}

// Intern maps content to a unique object of class c, allocating on first
// use and pinning the result as static — the String.intern treatment of
// §3.2 ("any String mapped via intern() is static").
func (f *Frame) Intern(content string, c heap.ClassID) (heap.HandleID, error) {
	rt := f.rt
	if id, ok := rt.interned[content]; ok {
		rt.step()
		if rt.accessOn {
			rt.touch(id, f.Thread)
		}
		f.addOperand(id)
		if rt.rec != nil {
			rt.rec.Intern(f, content, c, id)
		}
		return id, nil
	}
	id, err := f.alloc(c, 0)
	if err != nil {
		return heap.Nil, err
	}
	rt.interned[content] = id
	rt.internedRoots = append(rt.internedRoots, id)
	if rt.onStaticRef != nil {
		rt.onStaticRef(id)
	}
	if rt.rec != nil {
		// Recorded for hits and misses alike — a hit still steps and
		// fires events — with hit-vs-miss derived identically on both
		// sides of the seam from first occurrence of the content
		// string, never from the handle (a recycled handle id could
		// alias a stale mapping).
		rt.rec.Intern(f, content, c, id)
	}
	return id, nil
}

// NativePin marks an object as escaping into native code: conservatively
// static ("we catch such allocations and treat the equilive blocks as if
// they were static", §3.3).
func (f *Frame) NativePin(id heap.HandleID) {
	rt := f.rt
	if rt.rec != nil {
		rt.rec.NativePin(f, id)
	}
	rt.step()
	if rt.onStaticRef != nil {
		rt.onStaticRef(id)
	}
}

// Statics returns the static slot values (root enumeration).
func (rt *Runtime) Statics() []heap.HandleID { return rt.statics }
