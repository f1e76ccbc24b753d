// Package core implements the paper's contribution: the contaminated
// garbage (CG) collector.
//
// Every heap object is dynamically associated with a stack frame — its
// dependent frame — such that the object is provably dead when that frame
// pops (§2). Objects are partitioned into equilive sets maintained with
// Tarjan union–find (union by rank, path compression); contamination
// (one object referencing another) unions their sets, and the merged set
// depends on the older of the two frames. Returning an object promotes
// its set to the caller's frame; static references pin a set to the
// immortal frame 0. When a frame pops, every set on its dependent list is
// dead and each of its objects is freed — or, under §3.7 recycling, kept
// on a recycle list that feeds later allocations.
//
// CG is conservative: the symmetric treatment of contamination and the
// never-younger rule can over-estimate lifetimes, so it runs in concert
// with the traditional mark–sweep collector (internal/msa). During a full
// collection CG rebuilds its structures from the mark traversal; with
// Config.ResetOnGC it additionally *improves* dependent frames to the
// youngest sound choice (§3.6).
package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/heap"
	"repro/internal/msa"
	"repro/internal/vm"
)

// Config selects the collector variants evaluated in the thesis.
type Config struct {
	// StaticOpt enables the §3.4 optimization: referencing an
	// already-static object does not contaminate the referrer.
	StaticOpt bool
	// Recycle enables §3.7: popped equilive sets are kept as recycled
	// storage that feeds allocation before the traditional collector
	// runs.
	Recycle bool
	// TypedRecycle additionally maintains popped *singleton* sets by
	// class, so an allocation of the same class is satisfied in O(1)
	// instead of through the size-class index — the Chapter 6 future-work
	// extension ("the equilive singleton sets could be maintained 'by
	// type' ... such object recycling could have a big payoff").
	// Implies Recycle.
	TypedRecycle bool
	// ResetOnGC enables §3.6: a traditional collection re-derives each
	// live object's dependent frame from actual reachability, undoing
	// accumulated conservativeness.
	ResetOnGC bool
	// Packed selects nothing: §3.5's packed word is the one layout CG has
	// (objMeta.link). "cg+packed" stays a spec for the stored keys.
	Packed bool
	// Checked makes CG verify, on every event, that the touched objects
	// are not on the tainted (known-dead) list (§3.1.4). A violation is
	// a collector or runtime bug and panics.
	Checked bool
	// FreeHook, if non-nil, observes every object CG declares dead at a
	// frame pop, before storage is released. Tests use it to check
	// CG-dead objects against an exact reachability oracle.
	FreeHook func(id heap.HandleID)
}

// DefaultConfig is the preferred configuration of the thesis: the static
// optimization on, everything else off.
func DefaultConfig() Config { return Config{StaticOpt: true} }

// Stats aggregates CG activity. Counter semantics follow the thesis's
// experiment chapter; see the per-field comments.
type Stats struct {
	Created    uint64    // objects allocated (incl. recycled reuses)
	Popped     uint64    // objects collected by CG at frame pops (Fig 4.1 "collectable")
	Singleton  uint64    // of Popped, objects in size-1 blocks (Fig 4.5/4.9 "exact")
	Reused     uint64    // recycled objects handed back to the allocator (Fig 4.13)
	MSAFreed   uint64    // objects the traditional collector swept (Fig 4.11 "collected by MSA")
	Shared     uint64    // objects demoted to static due to thread sharing (Fig 4.2, A.1)
	LessLive   uint64    // objects whose frame improved (aged down) during resetting (Fig 4.11)
	FromStatic uint64    // of LessLive, objects that left the static set
	BlockSize  [7]uint64 // collected-block sizes: 1,2,3,4,5,6–10,>10 (Fig 4.5)
	AgeAtDeath [7]uint64 // birth-to-death frame distance: 0..5, >5 (Fig 4.6)
	Unions     uint64    // contamination unions performed
	OptSkips   uint64    // unions skipped by the §3.4 optimization
}

// Merge accumulates o into s. Every field is a sum, so merging shard
// results is commutative and associative: the engine's workers may
// finish in any order and the aggregate is identical.
func (s *Stats) Merge(o Stats) {
	s.Created += o.Created
	s.Popped += o.Popped
	s.Singleton += o.Singleton
	s.Reused += o.Reused
	s.MSAFreed += o.MSAFreed
	s.Shared += o.Shared
	s.LessLive += o.LessLive
	s.FromStatic += o.FromStatic
	for i := range s.BlockSize {
		s.BlockSize[i] += o.BlockSize[i]
	}
	for i := range s.AgeAtDeath {
		s.AgeAtDeath[i] += o.AgeAtDeath[i]
	}
	s.Unions += o.Unions
	s.OptSkips += o.OptSkips
}

// objMeta is CG's per-handle metadata — the three words §3.1.1 adds to
// the JDK handle, the union-find forest among them. CG.meta holds one
// per handle slot and follows the handle table. The allocating thread
// is not among them: the runtime keeps it (vm.Runtime.Foreign,
// Disowned), since it filters Access by it. Like setMeta and oldFrames
// the record holds no Go pointer — frames are named by their registry
// slot (vm.Frame.Index), sets by their slot in CG.sets — so the Go
// collector never scans a CG table, OnAlloc's whole-entry store carries
// no write barrier, and a pooled table pins nothing of the shard that
// filled it.
type objMeta struct {
	// birthDepth is the stack depth at allocation ("birth depth"), or
	// depthTainted once the object is known dead: collectSet reads it
	// last, for the age histogram, so the word is free from there on.
	birthDepth int32
	// next is the next object in the equilive set's list. A cycle's
	// beginCycle detaches every set and stamps each live object's old
	// dependent frame here, as registry slot + 1, for reached to read
	// before it starts the object's new list.
	next heap.HandleID
	// link is the thesis's "ancestor" word with §3.5's integer packed in.
	// > 0: the union-find parent handle. < 0: a representative, -link being
	// slot<<rankBits | rank — the set's slot in CG.sets and the tree's rank,
	// which only a representative has. 0: a slot never allocated in.
	link int32
}

// depthTainted is the birthDepth of an object CG knows to be dead
// (§3.1.4's tainted list): collected at a frame pop or swept by the
// traditional collector. No depth is negative.
const depthTainted int32 = -1

// Four rank bits, as §3.5 reserves (ranks stay below ten on SPECjvm98):
// a rank that reaches 15 stops growing, and unions stay correct, merely
// less balanced. maxSets keeps slot<<rankBits a positive int32.
const (
	rankBits = 4
	rankMask = 1<<rankBits - 1
	maxSets  = 1 << (31 - rankBits)
)

// rootLink is the link word of the representative of the set in slot.
func rootLink(slot, rank int32) int32 { return -(slot<<rankBits | rank) }

// setMeta describes one equilive set. CG.sets holds one per *live set*,
// not per handle: the set's union-find representative names its slot
// (objMeta.link), and the table is as long as the most sets ever alive at
// once. Sets are chained by slot into a doubly linked list per dependent
// frame (§3.1.2: "each frame is equipped with a reference to a list of
// its dependent equilive blocks"). A free slot has size 0 and threads the
// free list through next.
type setMeta struct {
	head, tail heap.HandleID // object membership list (O(1) concat)
	size       int32
	frame      int32 // dependent frame's registry slot; 0, the static frame, pins forever
	prev, next int32 // neighbouring slots on the frame's set list; 0 ends it
}

// CG is the contaminated collector. It implements vm.Collector (its
// Events table subscribes every slot) and observes the collection
// cycle through an msa.Cycle descriptor (which drives structure
// rebuilding during traditional collections).
type CG struct {
	cfg  Config
	rt   *vm.Runtime
	heap *heap.Heap
	msa  *msa.Collector

	meta []objMeta // per handle slot; the union-find forest is its link words
	// sets is the slot table of live equilive sets. Slot 0 is never used,
	// so a frame's GCHead of 0 means "no dependent sets"; freeSets heads
	// the LIFO of free slots, so a churning frame keeps reusing the same
	// few records.
	sets     []setMeta
	freeSets int32
	// oldFrames is the §3.6 reset pass's scratch, indexed like meta and
	// used only under ResetOnGC: each live object's dependent frame
	// stamped at beginCycle as registry slot + 1 (0 = no stamp), which
	// endCycle compares with the frame the mark gave it. Every other
	// configuration stamps into the object's own next word, and this
	// table stays empty.
	oldFrames []int32

	// Recycled storage (§3.7), indexed by the arena's size-class ladder:
	// extents are align8, so heap.SizeClass maps a freed object's extent
	// size to its rung exactly, and recycleClasses[class] lists the dead
	// objects of that extent size — a freed object's class is known at
	// pop time, so the insert is a direct index, no search at all.
	// recycleNonEmpty mirrors which classes hold objects; AllocFallback's
	// best fit is one NextSet scan over that bitset (O(ladder words),
	// independent of object count — the seed's sorted-bucket binary
	// search, and before it the first-fit walk that made cg+recycle
	// *slower* than cg on allocation storms, both collapse into the
	// ladder the arena already defines). Extents wider than the ladder
	// (huge arrays) spill into the sorted list recycleSpill, searched
	// only after the ladder misses.
	recycleClasses  []recycleList
	recycleNonEmpty heap.Bitset
	recycleSpill    []spillList
	// byType holds recycled singleton objects (Chapter 6 typed recycling):
	// a list per ClassID, flushed in id order.
	byType []recycleList
	// tab is the pooled carrier the side tables above were drawn from
	// at Attach; detach hands them back (see tablePool).
	tab *tables
	// cycle is CG's subscription to the collection cycle, built once at
	// Attach: the §3.6 rebuild slots always, the End accounting slot
	// only under ResetOnGC — an unsubscribed slot costs the mark loop
	// nothing (see msa.Cycle).
	cycle msa.Cycle
	stats Stats
}

// recycleList is a LIFO of dead objects kept heap-live for reuse
// (§3.7: "we only update a pointer"), threaded through their own
// records: once collectSet has read an object's next and link words
// nothing else reads them, so next runs from each object to the one
// pushed after it and link back to the one before. head is the oldest,
// which FlushRecycle frees first; tail the newest, which AllocFallback
// takes. A list costs two words however many objects it holds.
type recycleList struct{ head, tail heap.HandleID }

// spillList is the recycle list of one extent size wider than the arena
// ladder (heap.MaxSmallSize).
type spillList struct {
	size int
	recycleList
}

// tables is the recyclable allocation footprint of one CG instance:
// every side table whose construction and growth would otherwise be
// paid per matrix cell — meta and oldFrames, which follow the handle
// table, and sets, which follows the live-set count. The engine runs
// each cell on a fresh collector (shards must not share mutable state),
// but the *capacity* behind the tables is content-free once truncated —
// grown regions are re-zeroed by heap.Grow, detach clears the records a
// cell wrote and newSet zeroes each slot it appends — so recycling it
// through a pool is observably identical to fresh construction
// (TestPooledFigureIdentity pins this at the figure level). The pool
// fills only via Events.Detach, i.e. on the engine's Reset path; a
// dropped runtime donates nothing.
type tables struct {
	meta      []objMeta
	sets      []setMeta
	oldFrames []int32
	msa       *msa.Collector
	// maps is the mapping meta, oldFrames and sets were drawn from, at
	// its full capacity (empty while they are Go slices); unmap releases
	// it when the tables are dropped (see mapTables).
	maps  mappedTables
	unmap runtime.Cleanup
	// recycleClasses is the ladder-indexed list array (cleared at detach,
	// the array itself reused) and recycleSpill the sorted overflow list
	// for extents wider than the ladder.
	recycleClasses  []recycleList
	recycleNonEmpty heap.Bitset
	recycleSpill    []spillList
}

// mappedTables holds what mapTables drew from heap.Mapped.
type mappedTables struct {
	meta      []objMeta
	oldFrames []int32
	sets      []setMeta
}

func (m mappedTables) release() {
	heap.Unmap(m.meta)
	heap.Unmap(m.oldFrames)
	heap.Unmap(m.sets)
}

var tablePool = sync.Pool{New: func() any { return new(tables) }}

// New returns an unattached CG collector; pass it to vm.New. Side
// tables are drawn from the pool at Attach, not here: construction is
// cheap and a collector that never attaches owns nothing.
func New(cfg Config) *CG {
	if cfg.TypedRecycle {
		cfg.Recycle = true
	}
	return &CG{cfg: cfg}
}

// Name spells out the active variant configuration as a collector
// spec (internal/collectors).
func (c *CG) Name() string {
	n := "cg"
	if c.cfg.Recycle {
		n += "+recycle"
	}
	if c.cfg.ResetOnGC {
		n += "+reset"
	}
	if !c.cfg.StaticOpt {
		n += "+noopt"
	}
	return n
}

// Events implements vm.Collector: CG subscribes every slot, declares
// the recycling fallback capability only when §3.7 recycling is
// configured, and demands unelided access events only when the
// cfg.Checked taint assurance needs to see every touch.
func (c *CG) Events() vm.Events {
	ev := vm.Events{
		Name:      c.Name(),
		Attach:    c.Attach,
		Detach:    c.detach,
		Alloc:     c.OnAlloc,
		Ref:       c.OnRef,
		StaticRef: c.OnStaticRef,
		Return:    c.OnReturn,
		FramePop:  c.OnFramePop,
		Access:    c.OnAccess,
		Collect:   c.Collect,
		// Taint checking reads every access event; the runtime must
		// not elide dispatch even while single-threaded.
		AllAccess: c.cfg.Checked,
		Collector: c,
	}
	if c.cfg.Recycle {
		ev.AllocFallback = c.AllocFallback
	}
	return ev
}

// Attach binds CG to rt (the descriptor's Attach hook), drawing side
// tables from the pool.
func (c *CG) Attach(rt *vm.Runtime) {
	c.rt = rt
	c.heap = rt.Heap
	t := tablePool.Get().(*tables)
	c.tab = t
	if t.msa == nil {
		t.msa = msa.New(rt)
	} else {
		t.msa.Reattach(rt)
	}
	c.msa = t.msa
	if bound := c.heap.HandleBound(); cap(t.maps.meta) < bound {
		t.mapTables(bound)
	}
	c.meta = t.meta[:0]
	c.sets = append(t.sets[:0], setMeta{}) // slot 0, never used
	c.freeSets = 0
	c.oldFrames = t.oldFrames[:0]
	if c.cfg.Recycle {
		if t.recycleClasses == nil {
			t.recycleClasses = make([]recycleList, heap.NumSizeClasses)
		}
		t.recycleNonEmpty.Reset(heap.NumSizeClasses)
		c.recycleClasses = t.recycleClasses
		c.recycleNonEmpty = t.recycleNonEmpty
		c.recycleSpill = t.recycleSpill
	}
	c.cycle = msa.Cycle{
		Begin:    c.beginCycle,
		Reached:  c.reached,
		Edge:     c.edge,
		WillFree: c.willFree,
	}
	if c.cfg.ResetOnGC {
		c.cycle.End = c.endCycle
	}
}

// mapTables draws meta, oldFrames and sets from heap.Mapped at the
// attached heap's handle bound, which no HandleCap exceeds: they then
// never move. sets gets one slot more: every set holds a live object, a
// rebuild holds at most one slot beyond the sets it makes, and slot 0 is
// never used. A pooled mapping too small for this heap is released at
// once — it is address space a long-lived pool would otherwise keep.
// Where there is no mapping to be had the tables stay what they were,
// and heap.Grow and append double them.
func (t *tables) mapTables(bound int) {
	m := mappedTables{heap.Mapped[objMeta](bound), heap.Mapped[int32](bound), heap.Mapped[setMeta](bound + 1)}
	if m.meta == nil || m.oldFrames == nil || m.sets == nil {
		m.release()
		return
	}
	t.unmap.Stop()
	t.maps.release()
	t.maps, t.meta, t.oldFrames, t.sets = m, m.meta, m.oldFrames, m.sets
	t.unmap = runtime.AddCleanup(t, mappedTables.release, m)
}

// detach implements the event table's Detach capability: the runtime is
// replacing this collector, so its side tables go back to the pool,
// truncated: none holds a pointer, and heap.Grow zeroes what a later
// cell uncovers — but for meta, which grow only re-slices, so detach
// clears the records the cell wrote: those of the ids the heap handed
// out (the runtime detaches before it resets the heap), pages that are
// resident already. That clear takes the recycle lists' threads with
// it, and clearing the ladder array their heads. The collector must not
// be queried (Stats, Snapshot, events) after detach; its table fields
// are nilled so a violation fails loudly.
func (c *CG) detach() {
	t := c.tab
	if t == nil {
		return
	}
	c.tab = nil
	clear(c.meta[:min(len(c.meta), c.heap.NumHandles())])
	t.meta, t.sets, t.oldFrames = c.meta[:0], c.sets[:0], c.oldFrames[:0]
	if c.recycleClasses != nil {
		clear(c.recycleClasses)
		t.recycleClasses = c.recycleClasses
		t.recycleSpill = c.recycleSpill[:0]
	}
	// Unbind the pooled mark-sweep engine from the runtime too: a
	// pooled table must not pin a dead shard's heap and arena either.
	t.msa.Reattach(nil)
	c.meta, c.sets, c.oldFrames = nil, nil, nil
	c.recycleClasses, c.recycleNonEmpty, c.recycleSpill, c.byType = nil, nil, nil, nil
	c.msa = nil
	tablePool.Put(t)
}

// Stats returns a copy of the counters.
func (c *CG) Stats() Stats { return c.stats }

// MSAStats exposes the embedded traditional collector's counters.
func (c *CG) MSAStats() msa.Stats { return c.msa.Stats() }

// ensure grows meta, the one table CG indexes by handle on every event,
// to cover handle id: one compare; growth is the cold path. sets is not
// handle-indexed: newSet grows it.
func (c *CG) ensure(id heap.HandleID) {
	if int(id) >= len(c.meta) {
		c.grow()
	}
}

// grow takes meta to the handle table's capacity in one step: it grows
// when that table does, by the heap's rule, and id is covered because
// the heap has already handed it out. Within meta's capacity — the
// mapping, where there is one — it only re-slices: everything there past
// the ids a cell handed out is zero already (fresh from mmap or make,
// or cleared by detach), and clearing it again would commit pages of
// records no handle uses.
//
//go:noinline
func (c *CG) grow() {
	n := c.heap.HandleCap()
	if n <= cap(c.meta) {
		c.meta = c.meta[:n]
		return
	}
	c.meta = heap.Grow(c.meta, n, n)
}

// find returns the representative handle of id's equilive set, with the
// two-pass path compression of §3.1.1 ("Every object that find is called
// on has its parent updated to be the root").
func (c *CG) find(id heap.HandleID) heap.HandleID {
	root := id
	for p := c.meta[int(root)].link; p > 0; p = c.meta[int(root)].link {
		root = heap.HandleID(p)
	}
	for {
		m := &c.meta[int(id)]
		p := heap.HandleID(m.link)
		if p <= 0 || p == root {
			return root
		}
		m.link, id = int32(root), p
	}
}

// quickSame is the one-pass putfield fast path: conclusively true when
// a single link load per endpoint proves x and y equilive (the same
// object, the same parent, or one the other's parent), false (meaning
// "unknown") otherwise. Two distinct representatives never have equal
// links: no two sets share a slot.
func (c *CG) quickSame(x, y heap.HandleID) bool {
	if x == y {
		return true
	}
	lx, ly := c.meta[int(x)].link, c.meta[int(y)].link
	return lx == ly || heap.HandleID(lx) == y || heap.HandleID(ly) == x
}

// setOf returns the slot of the set id belongs to: its representative
// names it.
func (c *CG) setOf(id heap.HandleID) int32 { return -c.meta[int(c.find(id))].link >> rankBits }

// newSet takes a slot for a set about to be born: the most recently
// freed one, else one more at the table's end — only when more sets are
// alive than ever before, within the mapping where there is one and by
// append's own growth rule where there is not. The caller fills the
// record.
func (c *CG) newSet() int32 {
	if slot := c.freeSets; slot != 0 {
		c.freeSets = c.sets[int(slot)].next
		return slot
	}
	if len(c.sets) == maxSets {
		panic("core: more equilive sets than a link word can name")
	}
	c.sets = append(c.sets, setMeta{})
	return int32(len(c.sets) - 1)
}

// freeSet returns the slot of a set that no longer exists (merged away
// or collected) to the free list. The set must be off its frame's list.
func (c *CG) freeSet(slot int32) {
	s := &c.sets[int(slot)]
	s.size, s.next = 0, c.freeSets
	c.freeSets = slot
}

// singleton makes id a set of its own, dependent on f, and returns the
// link word that makes id its representative, at rank 0.
func (c *CG) singleton(id heap.HandleID, f *vm.Frame) int32 {
	slot := c.newSet()
	c.sets[int(slot)] = setMeta{head: id, tail: id, size: 1, frame: f.Index}
	c.linkSet(slot, f)
	return rootLink(slot, 0)
}

// linkSet pushes the set in slot onto the list of f, its dependent frame
// (the frame's GCHead word, §3.1.2).
func (c *CG) linkSet(slot int32, f *vm.Frame) {
	s := &c.sets[int(slot)]
	s.prev, s.next = 0, f.GCHead
	if f.GCHead != 0 {
		c.sets[int(f.GCHead)].prev = slot
	}
	f.GCHead = slot
}

// unlinkSet removes the set in slot from its dependent frame's list.
func (c *CG) unlinkSet(slot int32) {
	s := &c.sets[int(slot)]
	if s.prev != 0 {
		c.sets[int(s.prev)].next = s.next
	} else {
		c.rt.FrameAt(s.frame).GCHead = s.next
	}
	if s.next != 0 {
		c.sets[int(s.next)].prev = s.prev
	}
	s.prev, s.next = 0, 0
}

// retarget moves the set in slot to depend on frame nf, relinking frame
// lists.
func (c *CG) retarget(slot int32, nf *vm.Frame) {
	c.unlinkSet(slot)
	c.sets[int(slot)].frame = nf.Index
	c.linkSet(slot, nf)
}

// older returns the older (smaller-ID, longer-lived) of two frames.
// Frame 0 — the static pseudo-frame — is oldest of all.
func older(a, b *vm.Frame) *vm.Frame {
	if a.ID <= b.ID {
		return a
	}
	return b
}

// checkNotTainted enforces the §3.1.4 assurance in Checked mode: a dead
// object flowing through a runtime event is a collector bug. Only the
// mode test inlines into the event slots (the formatted panic cannot),
// so an unchecked run pays one predictable branch per event, not a call.
func (c *CG) checkNotTainted(id heap.HandleID, op string) {
	if c.cfg.Checked {
		c.checkTaint(id, op)
	}
}

func (c *CG) checkTaint(id heap.HandleID, op string) {
	if c.IsTainted(id) {
		panic(fmt.Sprintf("core: tainted object %d touched by %s", id, op))
	}
}

// OnAlloc is the Alloc slot: a fresh object forms a singleton
// equilive set dependent on the allocating frame.
func (c *CG) OnAlloc(id heap.HandleID, f *vm.Frame) {
	c.ensure(id)
	c.meta[int(id)] = objMeta{birthDepth: int32(f.Depth), link: c.singleton(id, f)}
	c.stats.Created++
}

// OnRef is the Ref slot: src now references dst, so the two
// contaminate each other (§2.1): their sets union, and the merged set
// depends on the older frame.
func (c *CG) OnRef(src, dst heap.HandleID) {
	c.checkNotTainted(src, "putfield(src)")
	c.checkNotTainted(dst, "putfield(dst)")
	c.contaminate(src, dst)
}

// contaminate unions the sets of x and y. y is the *referenced* object;
// under the §3.4 optimization, a reference *to* an already-static object
// contaminates nothing (the static object cannot become more live, and it
// holds no reference back to x).
func (c *CG) contaminate(x, y heap.HandleID) {
	// Fast path: a raytrace-style loop stores between the same pair of
	// already-equilive objects thousands of times; one parent load per
	// endpoint settles those without two full Finds (§3.5's few-ops
	// budget). Inconclusive answers fall through to the exact check.
	if c.quickSame(x, y) {
		return
	}
	rx, ry := c.find(x), c.find(y)
	if rx == ry {
		return
	}
	mx, my := &c.meta[int(rx)], &c.meta[int(ry)]
	wx, wy := -mx.link, -my.link
	ix, iy := wx>>rankBits, wy>>rankBits
	sx, sy := &c.sets[int(ix)], &c.sets[int(iy)]
	if c.cfg.StaticOpt && sy.frame == 0 && sx.frame != 0 {
		c.stats.OptSkips++
		return
	}
	c.unlinkSet(ix)
	c.unlinkSet(iy)
	// Union by rank: the lower rank hangs under the higher; equal ranks
	// hang ry under rx and bump rx's. The merged set keeps x's record,
	// whichever root names it; y's goes back to the free list.
	if kx, ky := wx&rankMask, wy&rankMask; kx < ky {
		mx.link, my.link = int32(ry), rootLink(ix, ky)
	} else {
		if kx == ky && kx < rankMask {
			kx++
		}
		my.link, mx.link = int32(rx), rootLink(ix, kx)
	}
	// Concatenate membership lists (O(1) via tail pointers).
	c.meta[int(sx.tail)].next = sy.head
	f := older(c.rt.FrameAt(sx.frame), c.rt.FrameAt(sy.frame))
	sx.tail = sy.tail
	sx.size += sy.size
	sx.frame = f.Index
	c.freeSet(iy)
	c.linkSet(ix, f)
	c.stats.Unions++
}

// OnStaticRef is the StaticRef slot: dst's set becomes dependent on
// frame 0 ("the referenced object's equilive block is added to the list
// of frame-0 dependent blocks").
func (c *CG) OnStaticRef(dst heap.HandleID) {
	c.checkNotTainted(dst, "putstatic")
	slot := c.setOf(dst)
	if c.sets[int(slot)].frame == 0 {
		return
	}
	c.retarget(slot, c.rt.StaticFrame())
}

// OnReturn is the Return slot: an object returned to its caller must
// survive at least until the caller's frame pops ("the object's equilive
// block is adjusted to depend on the caller's frame, unless the object is
// already dependent on an older frame").
func (c *CG) OnReturn(val heap.HandleID, caller *vm.Frame) {
	c.checkNotTainted(val, "areturn")
	slot := c.setOf(val)
	if c.rt.FrameAt(c.sets[int(slot)].frame).ID > caller.ID {
		c.retarget(slot, caller)
	}
}

// OnAccess is the Access slot: thread-share detection (§3.3). The
// first time an object is touched by a thread other than its allocator,
// its whole equilive block is demoted to the static set, permanently,
// and each member disowned, so the runtime dispatches none of their
// touches again. The runtime calls it only for such a touch unless
// cg+checked's AllAccess shows it every touch; the owner check here
// filters those the same way.
func (c *CG) OnAccess(id heap.HandleID, t *vm.Thread) {
	c.checkNotTainted(id, "access")
	if t == nil || !c.rt.Foreign(id, t) || c.meta[int(id)].birthDepth == depthTainted {
		return
	}
	slot := c.setOf(id)
	s := &c.sets[int(slot)]
	if s.frame == 0 {
		// The block is already immortal; just record this object as
		// shared. (Avoids re-walking large static sets on every
		// cross-thread touch.)
		c.rt.Disown(id)
		c.stats.Shared++
		return
	}
	// Demote the entire block to the static set (§3.3).
	for o := s.head; o != heap.Nil; o = c.meta[int(o)].next {
		if !c.rt.Disowned(o) {
			c.rt.Disown(o)
			c.stats.Shared++
		}
	}
	c.retarget(slot, c.rt.StaticFrame())
}

// OnFramePop is the FramePop slot: every equilive set dependent on the
// popping frame is dead. collectSet walks every object of every such set
// — the death histograms need each one — and frees it to the heap or,
// under recycling, pushes it onto its recycle list.
func (c *CG) OnFramePop(f *vm.Frame) int {
	n := 0
	for slot := f.GCHead; slot != 0; {
		s := &c.sets[int(slot)]
		next := s.next
		n += int(s.size)
		c.collectSet(slot, f)
		slot = next
	}
	f.GCHead = 0
	return n
}

// collectSet records statistics for a dead set, releases (or recycles)
// its objects and frees its slot.
func (c *CG) collectSet(slot int32, f *vm.Frame) {
	s := &c.sets[int(slot)]
	c.stats.BlockSize[sizeBucket(int(s.size))]++
	singleton := s.size == 1
	typed := c.cfg.TypedRecycle && singleton
	for o := s.head; o != heap.Nil; {
		m := &c.meta[int(o)]
		next := m.next
		dist := int(m.birthDepth) - f.Depth
		if dist < 0 {
			dist = 0
		}
		c.stats.AgeAtDeath[ageBucket(dist)]++
		c.stats.Popped++
		if singleton {
			c.stats.Singleton++
		}
		m.birthDepth = depthTainted
		if c.cfg.FreeHook != nil {
			c.cfg.FreeHook(o)
		}
		// The walk already visits every member for the histograms, and
		// has read its next word, so recycling costs a push on top.
		switch {
		case !c.cfg.Recycle:
			c.heap.Free(o)
		case typed:
			c.push(c.typeList(o), o)
		default:
			c.recycleAdd(o)
		}
		o = next
	}
	c.freeSet(slot)
}

// push appends o, dead, to l as its newest object.
func (c *CG) push(l *recycleList, o heap.HandleID) {
	m := &c.meta[int(o)]
	m.next, m.link = heap.Nil, int32(l.tail)
	if l.tail == heap.Nil {
		l.head = o
	} else {
		c.meta[int(l.tail)].next = o
	}
	l.tail = o
}

// pop takes l's newest object off it; l must not be empty.
func (c *CG) pop(l *recycleList) heap.HandleID {
	o := l.tail
	l.tail = heap.HandleID(c.meta[int(o)].link)
	if l.tail == heap.Nil {
		l.head = heap.Nil
	} else {
		c.meta[int(l.tail)].next = heap.Nil
	}
	return o
}

// flush frees l's objects to the heap, oldest first, and empties it.
func (c *CG) flush(l *recycleList) {
	for o := l.head; o != heap.Nil; o = c.meta[int(o)].next {
		c.heap.Free(o)
	}
	*l = recycleList{}
}

// length counts l's objects.
func (c *CG) length(l recycleList) int {
	n := 0
	for o := l.head; o != heap.Nil; o = c.meta[int(o)].next {
		n++
	}
	return n
}

// typeList returns the typed recycle list of o's class (Chapter 6: "when
// a frame is popped, there would be a collection of free objects of a
// given type").
func (c *CG) typeList(o heap.HandleID) *recycleList {
	cls := int(c.heap.ClassOf(o))
	if cls >= len(c.byType) {
		c.byType = heap.Grow(c.byType, c.heap.NumClasses(), c.heap.NumClasses())
	}
	return &c.byType[cls]
}

// bySize orders the spill lists for slices.BinarySearchFunc — the
// search behind both the spill insert and the fallback's over-ladder
// best fit.
func bySize(l spillList, size int) int { return cmp.Compare(l.size, size) }

// spillFor returns size's list in the sorted spill list, creating it
// if absent.
func (c *CG) spillFor(size int) *recycleList {
	i, found := slices.BinarySearchFunc(c.recycleSpill, size, bySize)
	if !found {
		c.recycleSpill = slices.Insert(c.recycleSpill, i, spillList{size: size})
	}
	return &c.recycleSpill[i].recycleList
}

// recycleAdd pushes a dead-but-heap-live object onto its ladder class —
// the extent size is align8, so the class is a direct index, no search —
// or, for extents wider than the ladder, onto its spill list.
func (c *CG) recycleAdd(o heap.HandleID) {
	size := c.heap.SizeOf(o)
	if size > heap.MaxSmallSize {
		c.push(c.spillFor(size), o)
		return
	}
	cl := heap.SizeClass(size)
	c.recycleNonEmpty.Set(cl)
	c.push(&c.recycleClasses[cl], o)
}

// sizeBucket maps a block size to Fig 4.5's histogram buckets.
func sizeBucket(n int) int {
	switch {
	case n <= 5:
		return n - 1
	case n <= 10:
		return 5
	default:
		return 6
	}
}

// ageBucket maps a frame distance to Fig 4.6's histogram buckets.
func ageBucket(d int) int {
	if d > 5 {
		return 6
	}
	return d
}

// AllocFallback is the recycling capability (declared in the event
// table only under cfg.Recycle): the §3.7 recycling allocator.
func (c *CG) AllocFallback(cls heap.ClassID, extra int) (heap.HandleID, bool) {
	if !c.cfg.Recycle {
		return heap.Nil, false
	}
	// O(1) exact-class reuse: same class means same size, so no fit
	// check is needed ("objects of a given type always take the same size
	// (except for arrays)", Chapter 6).
	if c.cfg.TypedRecycle && extra == 0 && int(cls) < len(c.byType) && c.byType[cls].tail != heap.Nil {
		return c.reuse(c.pop(&c.byType[cls]), cls, 0), true
	}
	// Best fit over the ladder index: the smallest recycled extent that
	// can hold the request is the first set bit of recycleNonEmpty at or
	// after the request's own class — one word-wise bitset scan, O(ladder
	// words), independent of both object count and populated-class
	// count. Extents wider than the ladder live in the sorted spill
	// list; every spill size exceeds every ladder size, so scanning the
	// ladder first preserves the seed's ascending-size best-fit order.
	need := c.heap.InstanceBytes(cls, extra)
	if need <= heap.MaxSmallSize {
		if cl := c.recycleNonEmpty.NextSet(heap.SizeClass(need)); cl >= 0 {
			l := &c.recycleClasses[cl]
			o := c.pop(l)
			if l.tail == heap.Nil {
				c.recycleNonEmpty.Clear(cl)
			}
			return c.reuse(o, cls, extra), true
		}
	}
	i, _ := slices.BinarySearchFunc(c.recycleSpill, need, bySize)
	for ; i < len(c.recycleSpill); i++ {
		if l := &c.recycleSpill[i].recycleList; l.tail != heap.Nil {
			return c.reuse(c.pop(l), cls, extra), true
		}
	}
	return heap.Nil, false
}

// reuse hands recycled o out again as an instance of cls with extra
// slots. Every list AllocFallback takes from holds extents at least as
// large as the request, so a failure is a bug.
func (c *CG) reuse(o heap.HandleID, cls heap.ClassID, extra int) heap.HandleID {
	if err := c.heap.Reinit(o, cls, extra); err != nil {
		panic(err)
	}
	c.stats.Reused++
	return o
}

// Collect is the collection capability: run the traditional collector
// with CG's cycle subscription attached.
func (c *CG) Collect() int { return c.msa.Collect(c.cycle) }

// --- msa.Cycle slots: structure rebuilding during traditional collection ---
//
// Whether or not ResetOnGC is enabled, CG must rebuild its side
// structures during a full collection: the sweep frees objects CG still
// thought live, and union-find does not support deletion. The mark
// traversal visits frames oldest-first (internal/msa), so the first frame
// to reach an object is the oldest frame referencing it. With ResetOnGC
// the object adopts that frame (the §3.6 improvement); without it the
// object keeps its previous dependent frame, preserving plain-CG
// conservativeness while still purging dead entries. Because the Edge
// slot is order-sensitive under the §3.4 static optimization, a cycle
// carrying these slots always runs msa's sequential mark.

// beginCycle is the Begin slot.
func (c *CG) beginCycle() {
	// Recycled storage is definitively dead: release it to the heap so
	// the sweep's accounting sees only MSA-discovered garbage.
	c.FlushRecycle()
	// Stamp every live object's current dependent frame, then detach all
	// sets from all frames: the mark phase rebuilds them. EachFrame
	// visits every frame exactly once, so no per-cycle scratch set is
	// needed (the map this replaced allocated on every forced GC of the
	// resetting experiment). The stamp goes into the object's own next
	// word once the walk has read it: the list it chains is being
	// dissolved, and reached reads the stamp before it starts a new one.
	// Only the reset pass, whose endCycle compares after the mark, keeps
	// it in oldFrames instead.
	reset := c.cfg.ResetOnGC
	if n := len(c.meta); reset && len(c.oldFrames) < n {
		c.oldFrames = heap.Grow(c.oldFrames, n, n)
	}
	c.rt.EachFrame(func(f *vm.Frame) {
		for slot := f.GCHead; slot != 0; slot = c.sets[int(slot)].next {
			s := &c.sets[int(slot)]
			stamp := s.frame + 1
			for o := s.head; o != heap.Nil; {
				m := &c.meta[int(o)]
				next := m.next
				if reset {
					c.oldFrames[int(o)] = stamp
				} else {
					m.next = heap.HandleID(stamp)
				}
				o = next
			}
		}
		f.GCHead = 0
	})
	// Every set was on some frame's list, so every slot is now free. The
	// rebuild takes them again from the table's start, and because the
	// mark fires Reached(dst) immediately before Edge(src, dst), a rebuilt
	// object joins its referrer's set at once: the slots in use during a
	// cycle never exceed the sets it rebuilds by more than one.
	c.sets = c.sets[:1]
	c.freeSets = 0
}

// reached is the Reached slot: a live object becomes a fresh singleton
// set on its (possibly improved) dependent frame. Every object the mark
// reaches was on some frame's set list at beginCycle — the recycle lists
// were flushed first — so without ResetOnGC its next word holds a stamp.
func (c *CG) reached(id heap.HandleID, f *vm.Frame) {
	m := &c.meta[int(id)]
	stamp := int32(m.next)
	m.next = heap.Nil
	nf := f
	switch {
	case c.rt.Disowned(id):
		nf = c.rt.StaticFrame() // sharing demotion is sticky (§3.3)
	case !c.cfg.ResetOnGC:
		nf = c.rt.FrameAt(stamp - 1) // preserve plain-CG conservativeness
	}
	m.link = c.singleton(id, nf)
}

// edge is the Edge slot: connected live objects re-contaminate, so
// the rebuilt partition obeys the same older-frame rule.
func (c *CG) edge(src, dst heap.HandleID) {
	c.contaminate(src, dst)
}

// willFree is the WillFree slot: the object dropped out of CG's
// structures and is collected by the sweep (Fig 4.11 "collected by MSA").
func (c *CG) willFree(id heap.HandleID) {
	c.meta[int(id)].birthDepth = depthTainted
	c.stats.MSAFreed++
}

// endCycle is the End slot, subscribed only under ResetOnGC: measure
// how many objects became "less live" than CG believed (Fig 4.11).
func (c *CG) endCycle(int) {
	c.heap.ForEachLive(func(id heap.HandleID) {
		if int(id) >= len(c.oldFrames) {
			return
		}
		stamp := c.oldFrames[int(id)]
		if stamp == 0 {
			return
		}
		old := c.rt.FrameAt(stamp - 1)
		if c.DependentFrame(id).ID > old.ID {
			c.stats.LessLive++
			if old.ID == 0 {
				c.stats.FromStatic++
			}
		}
		c.oldFrames[int(id)] = 0
	})
}

// FlushRecycle releases all recycled-but-unused storage back to the heap.
// The runtime calls Collect (which flushes) on exhaustion; experiments
// call this at end-of-run so heap accounting balances.
func (c *CG) FlushRecycle() {
	// Ascending ladder classes, then ascending spill sizes — the same
	// ascending-extent-size free order the seed's sorted bucket list
	// produced, so the arena sees an identical release sequence.
	for cl := c.recycleNonEmpty.NextSet(0); cl >= 0; cl = c.recycleNonEmpty.NextSet(cl + 1) {
		c.flush(&c.recycleClasses[cl])
		c.recycleNonEmpty.Clear(cl)
	}
	for i := range c.recycleSpill {
		c.flush(&c.recycleSpill[i].recycleList)
	}
	// Ascending class ids: a fixed release order, so a fixed arena state.
	for i := range c.byType {
		c.flush(&c.byType[i])
	}
}

// RecycledObjects counts objects currently waiting as recycled storage
// (ladder classes, spill lists, plus the typed per-class lists).
func (c *CG) RecycledObjects() int {
	n := 0
	for _, ls := range [][]recycleList{c.recycleClasses, c.byType} {
		for _, l := range ls {
			n += c.length(l)
		}
	}
	for _, b := range c.recycleSpill {
		n += c.length(b.recycleList)
	}
	return n
}

// DependentFrame reports the current dependent frame of a live object —
// the observable the worked example (Fig 2.1/2.2) and the tests inspect.
func (c *CG) DependentFrame(id heap.HandleID) *vm.Frame {
	return c.rt.FrameAt(c.sets[int(c.setOf(id))].frame)
}

// SetSize reports the size of id's equilive set.
func (c *CG) SetSize(id heap.HandleID) int {
	return int(c.sets[int(c.setOf(id))].size)
}

// SameSet reports whether two objects are equilive.
func (c *CG) SameSet(a, b heap.HandleID) bool { return c.find(a) == c.find(b) }

// IsTainted reports whether CG has declared id dead.
func (c *CG) IsTainted(id heap.HandleID) bool {
	return int(id) < len(c.meta) && c.meta[int(id)].birthDepth == depthTainted
}

// Breakdown is the Fig A.2–A.4 object classification at end of run:
// every created object is popped (CG-collected), static (live in the
// frame-0 set), thread (demoted for sharing), or msa (swept by the
// traditional collector).
type Breakdown struct {
	Created uint64
	Popped  uint64
	Static  uint64
	Thread  uint64
	MSA     uint64
	Live    uint64 // live objects not on the static frame (mid-run snapshots)
}

// Merge accumulates o into b (order-independent shard aggregation).
func (b *Breakdown) Merge(o Breakdown) {
	b.Created += o.Created
	b.Popped += o.Popped
	b.Static += o.Static
	b.Thread += o.Thread
	b.MSA += o.MSA
	b.Live += o.Live
}

// Snapshot classifies all objects created so far. Call after the
// workload's frames have all popped for end-of-run semantics.
func (c *CG) Snapshot() Breakdown {
	b := Breakdown{
		Created: c.stats.Created,
		Popped:  c.stats.Popped,
		MSA:     c.stats.MSAFreed,
		Thread:  c.stats.Shared,
	}
	c.heap.ForEachLive(func(id heap.HandleID) {
		if c.meta[int(id)].birthDepth == depthTainted || c.rt.Disowned(id) {
			return // recycled-awaiting-reuse or already counted as thread
		}
		if c.sets[int(c.setOf(id))].frame == 0 {
			b.Static++
		} else {
			b.Live++
		}
	})
	return b
}

var _ vm.Collector = (*CG)(nil)
