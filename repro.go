// Package repro is a from-scratch Go reproduction of "Contaminated
// Garbage Collection" (Cannarozzi, Plezbert & Cytron, PLDI 2000; thesis
// WUCSE-2003-40): an incremental, mark-free garbage collector that
// associates every heap object with the stack frame whose pop proves it
// dead, maintaining equilive sets with union-find and collecting whole
// sets in O(1) at frame pops.
//
// The package is a facade over the implementation:
//
//   - internal/core — the contaminated collector (the paper's contribution)
//   - internal/unionfind — reference disjoint-set forests: core's test oracle (its own forest is in its per-object record)
//   - internal/heap — the managed-heap substrate (handles, size-class slab arena)
//   - internal/vm — the runtime (frames, threads, statics, interning)
//   - internal/msa — the traditional mark–sweep baseline
//   - internal/gengc — a generational baseline for ablations
//   - internal/workload — SPECjvm98 benchmark analogs (a registry)
//   - internal/collectors — the closed collector grammar (spec → factory)
//   - internal/engine — runs cells on pooled runtime shards; only its pipeline entry replays tapes
//   - internal/experiments — the one list of the thesis's figures, and their renderer
//   - internal/results — cell outcomes, the content-addressed store and the one cell pipeline (Scheduler)
//   - internal/dist — the multi-process sweep (coordinator and cgworker protocol)
//   - internal/serve — the sweep server behind cgserve and cgsweep -server
//   - internal/tape — record a program's event stream once, replay it under any collector
//   - internal/obs — cycle timelines, provenance and progress counters (obs/obshttp serves them)
//   - internal/jasm — a textual assembly for the runtime
//
// Quick start:
//
//	h := repro.NewHeap(1 << 20)
//	cls := h.DefineClass(repro.Class{Name: "Node", Refs: 2, Data: 8})
//	cg := repro.NewCG(repro.DefaultConfig())
//	rt := repro.NewRuntime(h, cg)
//	th := rt.NewThread(0)
//	th.CallVoid(1, func(f *repro.Frame) {
//	    f.SetLocal(0, f.MustNew(cls)) // dies when this frame pops
//	})
//	fmt.Println(cg.Stats().Popped) // 1
package repro

import (
	"repro/internal/collectors"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gengc"
	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/vm"
)

// Re-exported core types; see the internal packages for full
// documentation.
type (
	// Config selects contaminated-collector variants (§3.4–§3.7).
	Config = core.Config
	// CG is the contaminated collector.
	CG = core.CG
	// Heap is the managed-heap substrate.
	Heap = heap.Heap
	// Class describes an object layout.
	Class = heap.Class
	// HandleID names a heap object; 0 is null.
	HandleID = heap.HandleID
	// Runtime is the managed runtime CG instruments.
	Runtime = vm.Runtime
	// Frame is one method activation.
	Frame = vm.Frame
	// Thread is a green thread (a stack of frames).
	Thread = vm.Thread
	// Events is the event-table collector ABI: function-valued slots
	// plus capability fields, bound into the runtime's hot path by
	// Runtime.Attach (unsubscribed events cost nothing).
	Events = vm.Events
	// Collector is anything that can describe its event subscriptions
	// as an Events table — every collector implementation, and Events
	// itself. The single method runs once at attach, never per event.
	Collector = vm.Collector
	// Engine runs cells on pooled runtime shards; results.Scheduler is
	// what queues them.
	Engine = engine.Engine
	// Job is one (workload, size, collector) cell of the matrix.
	Job = engine.Job
	// Result is the outcome of one Job.
	Result = engine.Result
)

// Nil is the null reference.
const Nil = heap.Nil

// DefaultConfig is the paper's preferred configuration: the §3.4 static
// optimization enabled, everything else off.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewCG returns a contaminated collector; pass it to NewRuntime.
func NewCG(cfg Config) *CG { return core.New(cfg) }

// NewHeap returns a managed heap with an arena of the given byte size.
func NewHeap(arenaBytes int) *Heap { return heap.New(arenaBytes) }

// NewRuntime binds a heap and a collector into a runnable runtime.
func NewRuntime(h *Heap, c Collector) *Runtime { return vm.New(h, c) }

// NewMarkSweep returns the traditional-collector-only baseline system
// (the "JDK 1.1.8" configuration of §4.5).
func NewMarkSweep() Collector { return msa.NewSystem() }

// NewGenerational returns the two-generation baseline used by the
// related-work ablations (§1.1, §5).
func NewGenerational() Collector { return gengc.New() }

// NewCollector resolves a collector spec to its event table, e.g.
// "cg", "cg+recycle+reset", "msa", "gen", "none".
func NewCollector(spec string) (Events, error) { return collectors.New(spec) }

// NewEngine returns a sharded execution engine; workers <= 0 selects
// GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }
