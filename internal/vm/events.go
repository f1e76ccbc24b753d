package vm

import "repro/internal/heap"

// Events is the event-table collector ABI: a descriptor of direct
// function-valued slots — one per runtime event — plus capability
// fields, handed to Runtime.Attach (usually via New or Reset). The
// runtime binds each non-nil slot straight into its hot path, so an
// event nobody subscribed to costs a single nil check and a collector
// pays an indirect call only for the events it declared. The old
// five-method Collector interface made every collector pay interface
// dispatch on every event and bolted elision opt-outs
// (ForceAccessEvents/ForceFramePopEvents), the AllocFallback probe and
// SetGCEvery wiring on the side; all of those are declarative fields
// here.
//
// The zero value subscribes to nothing: it is the "none" collector
// (plenty-of-storage configuration of §4.5).
type Events struct {
	// Name identifies the collector in experiment output.
	Name string

	// Attach, if non-nil, is called once when the descriptor is bound
	// to a runtime, before any event can fire. Collectors use it to
	// capture the runtime and (re)initialise their state; a descriptor
	// must not be attached to two runtimes at once.
	Attach func(rt *Runtime)

	// Detach, if non-nil, is called when another event table replaces
	// this one on the runtime (Reset between pooled-shard cells, or a
	// mid-run Attach). The collector must consider itself unbound and
	// must not be queried afterwards; pooled implementations reclaim
	// their side tables here so a sweep of cells stops paying per-cell
	// table construction. A runtime that is simply dropped never calls
	// Detach.
	Detach func()

	// Alloc observes a fresh object allocated while f was the active
	// frame ("when an object is created, it is associated with the
	// frame of the currently active method").
	Alloc func(id heap.HandleID, f *Frame)
	// Ref observes src acquiring a reference to dst (putfield or
	// aastore with a non-nil dst).
	Ref func(src, dst heap.HandleID)
	// StaticRef observes a static variable (or an interpreter-internal
	// static structure such as the intern table, §3.2) acquiring a
	// reference to dst.
	StaticRef func(dst heap.HandleID)
	// Return observes a method returning val to caller (areturn).
	Return func(val heap.HandleID, caller *Frame)
	// FramePop observes frame f popping; an incremental collector may
	// reclaim storage here and reports how many objects it freed. The
	// runtime elides the dispatch for frames whose GCHead is zero — no
	// collector-owned state depends on them — unless AllPops is set.
	FramePop func(f *Frame) int
	// Access observes thread t touching object id that t did not
	// allocate — the static pseudo-frame's objects included — and that
	// no collector has disowned (thread-share detection, §3.3). The
	// runtime keeps the owner table this rule reads: each allocation
	// records its thread while the slot is bound, and Runtime.Disown,
	// which the collector calls when it demotes an object as shared,
	// stops the object's touches from being dispatched again. While a
	// single thread owns every object it could touch (Runtime.accessOn)
	// nothing is dispatched at all. AllAccess lifts both filters: the
	// slot then sees every touch, t nil for the static pseudo-frame's.
	Access func(id heap.HandleID, t *Thread)

	// AllocFallback, if non-nil, declares the recycling capability: it
	// may satisfy an allocation from recycled storage after the arena
	// is exhausted (§3.7), before the runtime falls back to a full
	// collection. ok reports whether id is a valid recycled object.
	AllocFallback func(c heap.ClassID, extra int) (id heap.HandleID, ok bool)
	// Collect, if non-nil, runs a full traditional collection and
	// reports how many objects were freed. Without it ForceCollect and
	// the exhaustion cascade collect nothing.
	Collect func() int

	// AllAccess subscribes Access to every object touch, defeating the
	// single-thread elision and the owner filter. Collectors whose
	// Access slot has effects beyond thread-share detection (cg+checked's
	// taint assurance) declare it; it replaces Runtime.ForceAccessEvents.
	AllAccess bool
	// AllPops subscribes FramePop to every pop, including frames whose
	// GCHead is zero. Collectors that track pops without arming the
	// frame's GCHead word (instrumentation, tests) declare it; it
	// replaces Runtime.ForceFramePopEvents.
	AllPops bool

	// GCEvery, when non-zero, arms a full collection every GCEvery
	// runtime operations at attach (the §4.7 resetting
	// instrumentation). It replaces the engine's post-construction
	// SetGCEvery call; SetGCEvery remains for mid-run changes.
	GCEvery uint64

	// Collector is the concrete collector behind the table (e.g. a
	// *core.CG), carried for statistics extraction; nil for the empty
	// table. The runtime never touches it.
	Collector any
}

// Events implements Collector, so a descriptor can be passed anywhere a
// collector is expected.
func (ev Events) Events() Events { return ev }

// Collector is anything that can describe its event subscriptions as an
// Events table: every collector implementation, and Events itself. It
// replaces the old five-method event interface — the single method runs
// once at attach, never per event.
type Collector interface {
	Events() Events
}

// None is the empty event table: no collection, every event slot
// unsubscribed (the "plenty of storage, asynchronous GC disabled"
// configuration of §4.5).
func None() Events { return Events{Name: "none"} }
