package heap

import (
	"fmt"
	"math/bits"
	"runtime"
)

// HandleID names an object through its handle-table slot. ID 0 is the
// null reference, mirroring the JVM's null.
type HandleID int32

// Nil is the null reference.
const Nil HandleID = 0

// ClassID indexes the class table.
type ClassID int32

// Class describes an object layout: how many reference slots instances
// carry and how many additional payload (primitive) bytes. Arrays are
// classes with IsArray set; their element count is chosen per allocation.
type Class struct {
	Name    string
	Refs    int  // reference slots per instance
	Data    int  // primitive payload bytes per instance
	IsArray bool // element count supplied at Alloc time
}

// headerBytes models the JVM object header.
const headerBytes = 8

// maxSlab bounds the shared ref slab so extent offsets (and off+len
// sums) fit the int32 fields of the handle record.
const maxSlab = 1<<31 - 1

// MaxArenaBytes is the largest arena a heap can span: the handle record
// and the sweep's free batches hold an object's address and size as
// int32, so an extent must end at or below it. NewArena panics above it;
// the engine and the CLIs refuse such a budget as an error first.
const MaxArenaBytes = 1<<31 - 1

// refBytes models one reference slot (handle index) in the object body.
const refBytes = 4

// align rounds sizes to 8-byte boundaries, as the JDK allocator does.
func align(n int) int { return (n + 7) &^ 7 }

// minInstanceBytes is the arena footprint of the smallest object there
// is, a bare header: what one more handle costs the arena at least.
const minInstanceBytes = (headerBytes + 7) &^ 7

// InstanceSize reports the arena footprint of an instance of c with
// extra additional reference slots (array elements).
func InstanceSize(c Class, extra int) int {
	return align(headerBytes + (c.Refs+extra)*refBytes + c.Data)
}

// handle is one slot of the handle table: the indirection cell through
// which all references pass (§3.1: "Each handle contains a pointer to the
// object's current location …"). Reference slots live in the heap's
// shared slab, not in a per-handle slice: the handle records only its
// extent (offset, live length, capacity). refOff/refCap survive Free so
// that a handle slot recycled through the free-ID path reuses its slab
// extent — steady-state allocation touches no Go allocator. The record
// is 24 pointer-free bytes (the thesis's handle is a pointer pair plus
// CG's fields, §3.1.1): addr and size are int32 behind MaxArenaBytes.
type handle struct {
	class  ClassID
	addr   int32 // arena address; in a free slot, the next free slot's id (Heap.freeHead)
	size   int32 // arena footprint, at least the header; 0 iff the slot is free (or Nil's)
	refOff int32 // base of this handle's extent in the ref slab
	refLen int32 // live reference slots (current instance)
	refCap int32 // extent capacity; kept across Free for reuse
}

// layout is a class's instance footprint with no extra slots.
type layout struct {
	size int // InstanceSize(class, 0)
	refs int // the class's reference slots
}

// Stats aggregates heap-level counters.
type Stats struct {
	Allocs      uint64 // successful allocations
	Frees       uint64 // explicit frees (CG or MSA)
	FailedAlloc uint64 // allocations that saw ErrOutOfMemory at least once
	BytesAlloc  uint64 // cumulative bytes allocated
	Compactions uint64 // Compact calls that moved the live objects
}

// Heap combines the class table, handle table, the shared ref slab and
// the arena. Create one with New.
type Heap struct {
	classes []Class
	// layouts holds, at each ClassID, what an instance with no extra
	// slots takes: worked out once at DefineClass, so an allocation reads
	// two words instead of copying the Class and redoing InstanceSize.
	// Only array allocations consult classes.
	layouts []layout
	byName  map[string]ClassID
	// handles and liveBits are drawn from Mapped at HandleBound slots
	// where this build can map: reserved once, committed by the kernel as
	// they are first written, never moved. Elsewhere they start empty and
	// Grow doubles them. Either way handleCap is what they may use.
	handles []handle
	// handleCap is the capacity the growth rule has granted the handle
	// table, at most cap(handles). It starts over at Reset, so a pooled
	// heap and the tables that follow it grow, and are cleared, in step
	// with the cell they serve, not with the largest cell they ever held.
	handleCap int
	freeHead  HandleID // LIFO of free slots, linked through their addr words
	// slab is the single backing store for every handle's reference
	// slots: handle i owns slab[refOff : refOff+refLen]. Extents are
	// recycled with their handle slot (see handle.refCap); an extent is
	// orphaned only when a recycled slot needs a wider one, so in steady
	// state Alloc/Reinit/Free perform no Go allocation and the mark
	// phase walks contiguous memory. It is drawn from Mapped at one slot
	// per refBytes of arena, what live slots can ever use; only orphaned
	// extents can carve past that, and then Grow doubles it on the Go heap.
	slab  []HandleID
	arena *Arena
	stats Stats
	// liveBits is the live set word-packed, maintained by Alloc/Free:
	// bit i is set iff handles[i].size != 0. The sweep phase
	// consumes it directly — garbage in a 64-handle window is
	// live &^ mark, one AND-NOT per word — and ForEachLive/NumLive walk
	// words instead of handle records.
	liveBits Bitset
	// mapped is what New drew from Mapped, released by unmap once the heap
	// is unreachable, or at once by Release.
	mapped mappedTables
	unmap  runtime.Cleanup
}

// mappedTables holds the heap's mappings at their full capacity; a nil
// table is one Mapped could not reserve.
type mappedTables struct {
	handles []handle
	live    []uint64
	slab    []HandleID
}

func (m mappedTables) release() {
	Unmap(m.handles)
	Unmap(m.live)
	Unmap(m.slab)
}

// New returns a heap whose object space spans arenaBytes.
func New(arenaBytes int) *Heap {
	h := &Heap{
		arena:     NewArena(arenaBytes),
		byName:    make(map[string]ClassID),
		handleCap: 1,
	}
	bound := h.HandleBound()
	h.mapped = mappedTables{
		handles: Mapped[handle](bound),
		live:    Mapped[uint64](BitsetWords(bound)),
		slab:    Mapped[HandleID](arenaBytes / refBytes),
	}
	h.unmap = runtime.AddCleanup(h, mappedTables.release, h.mapped)
	h.handles = Grow(h.mapped.handles, 1, 1) // slot 0 = Nil, never used
	h.liveBits = Grow(h.mapped.live, 1, 1)
	h.slab = h.mapped.slab
	return h
}

// Release unmaps the heap's tables now rather than once a Go collection
// finds the heap unreachable: for a heap nobody will use again, such as
// a shard the engine's pool evicts. The heap must not be used afterwards.
func (h *Heap) Release() {
	h.unmap.Stop()
	h.mapped.release()
	h.mapped = mappedTables{}
	h.handles, h.liveBits, h.slab = nil, nil, nil
}

// DefineClass registers a class and returns its ID. Redefining a name
// returns the existing ID if the layout matches and panics otherwise —
// class tables are append-only in the JVM too.
func (h *Heap) DefineClass(c Class) ClassID {
	if id, ok := h.byName[c.Name]; ok {
		if h.classes[id] != c {
			panic(fmt.Sprintf("heap: conflicting redefinition of class %q", c.Name))
		}
		return id
	}
	id := ClassID(len(h.classes))
	h.classes = append(h.classes, c)
	h.layouts = append(h.layouts, layout{size: InstanceSize(c, 0), refs: c.Refs})
	h.byName[c.Name] = id
	return id
}

// InstanceBytes reports the arena footprint of an instance of class c
// with extra additional reference slots: InstanceSize(ClassDef(c),
// extra), read from the class's layout when extra is 0.
func (h *Heap) InstanceBytes(c ClassID, extra int) int {
	if extra == 0 {
		return h.layouts[int(c)].size
	}
	return InstanceSize(h.classes[int(c)], extra)
}

// footprint reports the arena size and reference slots of an instance
// of c with extra slots, refusing extra slots on a class that is not an
// array. The common case, extra == 0, is the layout's two words.
func (h *Heap) footprint(c ClassID, extra int) (size, nrefs int, err error) {
	l := h.layouts[int(c)]
	if extra == 0 {
		return l.size, l.refs, nil
	}
	return h.arrayFootprint(c, extra)
}

// arrayFootprint is footprint's cold half, kept out of it so that what
// the profile inlines into Alloc is the two-word read alone.
func (h *Heap) arrayFootprint(c ClassID, extra int) (size, nrefs int, err error) {
	cls := &h.classes[int(c)]
	if !cls.IsArray {
		return 0, 0, fmt.Errorf("heap: class %q is not an array class", cls.Name)
	}
	return InstanceSize(*cls, extra), cls.Refs + extra, nil
}

// ClassByName looks a class up; ok is false if undefined.
func (h *Heap) ClassByName(name string) (ClassID, bool) {
	id, ok := h.byName[name]
	return id, ok
}

// ClassOf reports the class of a live object.
func (h *Heap) ClassOf(id HandleID) ClassID { return h.h(id).class }

// ClassDef returns the class descriptor.
func (h *Heap) ClassDef(c ClassID) Class { return h.classes[int(c)] }

// NumClasses reports how many classes are defined. ClassIDs are dense:
// every id in [0, NumClasses) is valid for ClassDef, in definition
// order — which is what lets a recorded tape snapshot the class table
// and a replay rebuild it with identical ids.
func (h *Heap) NumClasses() int { return len(h.classes) }

// Arena exposes the underlying allocator (read-mostly; the VM's GC
// trigger inspects occupancy).
func (h *Heap) Arena() *Arena { return h.arena }

// Stats returns a copy of the counters.
func (h *Heap) Stats() Stats { return h.stats }

// h returns the handle record for id, panicking on null or stale IDs:
// handle discipline violations are runtime bugs, not user errors. The
// failure paths live in a noinline helper so h itself inlines into the
// per-event accessors. The Nil slot's size stays 0 like a freed slot's.
func (h *Heap) h(id HandleID) *handle {
	hd := &h.handles[int(id)]
	if hd.size == 0 {
		h.badHandle(id)
	}
	return hd
}

//go:noinline
func (h *Heap) badHandle(id HandleID) {
	if id == Nil {
		panic("heap: null handle dereference")
	}
	panic(fmt.Sprintf("heap: dangling handle %d", id))
}

//go:noinline
func (h *Heap) badSlot(hd *handle, i int) {
	panic(fmt.Sprintf("heap: ref slot %d out of range on %s", i, h.classes[hd.class].Name))
}

// Alloc creates an instance of class c with extra additional reference
// slots (used for reference arrays; zero for plain objects), returning
// its handle. On arena exhaustion it returns ErrOutOfMemory without side
// effects, so the runtime can collect and retry.
func (h *Heap) Alloc(c ClassID, extra int) (HandleID, error) {
	size, nrefs, err := h.footprint(c, extra)
	if err != nil {
		return Nil, err
	}
	addr, err := h.arena.Alloc(size)
	if err != nil {
		h.stats.FailedAlloc++
		return Nil, err
	}
	id := h.freeHead
	if id != Nil {
		h.freeHead = HandleID(h.handles[int(id)].addr)
	} else {
		n := len(h.handles)
		if n == h.handleCap {
			h.handleCap = h.grownHandleCap()
		}
		// Grow zeroes the slots it uncovers, so capacity retained across
		// Reset can never surface a stale record or stale live bits.
		h.handles = Grow(h.handles, n+1, h.handleCap)
		h.liveBits = Grow(h.liveBits, BitsetWords(n+1), BitsetWords(h.handleCap))
		id = HandleID(n)
	}
	hd := &h.handles[int(id)]
	hd.class = c
	hd.addr = int32(addr)
	hd.size = int32(size)
	h.liveBits.Set(int(id))
	h.bindRefs(hd, nrefs)
	h.stats.Allocs++
	h.stats.BytesAlloc += uint64(size)
	return id, nil
}

// bindRefs points hd at a zeroed slab extent of nrefs slots, reusing the
// slot's previous extent when it is wide enough (the free-ID recycling
// path) and carving a fresh one off the slab tail otherwise.
func (h *Heap) bindRefs(hd *handle, nrefs int) {
	if nrefs <= int(hd.refCap) {
		hd.refLen = int32(nrefs)
		clearRefs(h.slab[hd.refOff : hd.refOff+int32(nrefs)])
		return
	}
	off := len(h.slab)
	if off+nrefs > maxSlab {
		panic("heap: ref slab exceeds 2^31 slots")
	}
	// Reused capacity may hold stale refs; Grow clears what it uncovers.
	// Past its reservation the slab doubles: a slot that widens orphans
	// its old extent, so arena bytes do not bound the slots carved.
	h.slab = Grow(h.slab, off+nrefs, min(2*cap(h.slab), maxSlab))
	hd.refOff = int32(off)
	hd.refLen = int32(nrefs)
	hd.refCap = int32(nrefs)
}

// clearRefs nils out a slab extent (compiles to a memclr).
func clearRefs(s []HandleID) {
	for i := range s {
		s[i] = Nil
	}
}

// refs returns hd's live reference slots as a slab window.
func (h *Heap) refs(hd *handle) []HandleID {
	return h.slab[hd.refOff : hd.refOff+hd.refLen]
}

// Free releases an object's arena extent and recycles its handle slot.
// The slab extent stays bound to the slot (refCap) so a later Alloc
// reusing the slot reuses the extent. Freeing Nil or a dead handle
// panics: both collectors must agree on ownership, and a double free
// indicates a collector bug.
func (h *Heap) Free(id HandleID) {
	hd := h.h(id)
	h.arena.Free(int(hd.addr), int(hd.size))
	hd.addr, hd.size = int32(h.freeHead), 0
	hd.refLen = 0
	h.freeHead = id
	h.liveBits.Clear(int(id))
	h.stats.Frees++
}

// Compact moves every live object into an emptied arena, leaving no
// partial slab but each class's last and no free page below a used one.
// It is how an allocation refused at low occupancy — a phase of small
// objects that died and left one survivor a page, so that no page is
// free for another class — gets its page.
//
// The placement rule: starting from an empty arena, the live handles
// are re-allocated in ascending id order, each at its own size, by the
// arena's ordinary policy (lowest free block of a partial slab, else the
// lowest free page or page run). So where everything lands depends only
// on which ids are live and how big they are, never on the history that
// fragmented the arena. Objects are reached only through their handles
// (§3.1), so moving one writes its addr word and nothing else: ids,
// classes, references and every collector's tables stay as they are.
//
// Compact places into a scratch arena first and commits only if every
// object found room. In the rare arena where id order packs worse than
// the layout it replaces (a class that spilled into the short tail page
// can need a full page instead), it changes nothing and returns false.
func (h *Heap) Compact() bool {
	a := NewArena(h.arena.Size())
	ok := true
	h.ForEachLive(func(id HandleID) {
		if ok {
			_, err := a.Alloc(int(h.handles[int(id)].size))
			ok = err == nil
		}
	})
	if !ok {
		return false
	}
	// Same sizes in the same order over an empty arena: the same
	// addresses, now written down.
	a.Reset()
	h.ForEachLive(func(id HandleID) {
		hd := &h.handles[int(id)]
		addr, _ := a.Alloc(int(hd.size))
		hd.addr = int32(addr)
	})
	*h.arena = *a
	h.stats.Compactions++
	return true
}

// Reinit repurposes a live object's extent and handle for a fresh
// instance of class c with extra reference slots — the §3.7 recycling
// path, where a dead-but-unfreed object is handed out again without
// touching the allocator ("instead of having to free each object … we
// only update a pointer"). The extent keeps its original size (first-fit
// allows internal fragmentation); it must be at least as big as the new
// instance requires.
func (h *Heap) Reinit(id HandleID, c ClassID, extra int) error {
	hd := h.h(id)
	need, nrefs, err := h.footprint(c, extra)
	if err != nil {
		return err
	}
	if need > int(hd.size) {
		return fmt.Errorf("heap: recycled extent of %d bytes too small for %d", hd.size, need)
	}
	hd.class = c
	h.bindRefs(hd, nrefs)
	h.stats.Allocs++
	h.stats.BytesAlloc += uint64(need)
	return nil
}

// Live reports whether id names a currently allocated object. Nil is not
// live.
func (h *Heap) Live(id HandleID) bool {
	return int(id) < len(h.handles) && h.handles[int(id)].size != 0
}

// NumLive counts live objects: one popcount per 64 handles.
func (h *Heap) NumLive() int {
	n := h.liveBits.Count()
	runtime.KeepAlive(h) // the bitmap's mapping lives as long as h does
	return n
}

// NumHandles reports the handle-table length, dead slots and the Nil
// slot included: every id ever handed out is below it. Collection
// cycles size their mark bitsets by it.
func (h *Heap) NumHandles() int { return len(h.handles) }

// HandleCap reports how many handles the table holds before it next
// grows. Tables indexed by HandleID size themselves to it in one step
// (Grow(t, HandleCap(), HandleCap())) when they meet an id past their
// length, so they grow when the handle table does and never between.
func (h *Heap) HandleCap() int { return h.handleCap }

// HandleBound is the most slots the handle table can ever use: the Nil
// slot and one per minInstanceBytes of arena. HandleCap never exceeds
// it (grownHandleCap's last clamp), so a table reserved at HandleBound
// slots never has to move.
func (h *Heap) HandleBound() int { return 1 + h.arena.Size()/minInstanceBytes }

// grownHandleCap is the growth rule of every handle-indexed table,
// applied when the handle table is full: double, unless the arena
// cannot fill a doubled table, and then reserve what it can fill. A
// handle is appended only when every slot is live (free ids are reused
// first), so the n objects behind the slots hold the arena bytes in use
// and, until one of them is freed, each further handle needs
// minInstanceBytes of what is free: n+1+room slots is all the table can
// use before the next free, and at most HandleBound, which bounds it for
// good. Frees can make room for more handles than that
// (small objects replacing large ones), so a clamped step is still a
// quarter of the table: growth stays geometric whatever the arena says.
func (h *Heap) grownHandleCap() int {
	n := len(h.handles)
	room := h.arena.FreeBytes() / minInstanceBytes
	c := min(2*n, max(n+n/4, n+1+room))
	return min(c, h.HandleBound())
}

// Grow returns s at length n >= len(s) with its contents preserved and
// the grown region zeroed. Capacity s already has is reused, and
// cleared first: what a Reset or Truncate left beyond len never
// surfaces. A reallocation reserves capacity c in one step. The handle
// table and the ref slab choose c; side tables pass n = c = HandleCap().
func Grow[T any](s []T, n, c int) []T {
	if n <= cap(s) {
		clear(s[len(s):n])
		return s[:n]
	}
	g := make([]T, n, max(n, c))
	copy(g, s)
	return g
}

// ResetMarks is Bitset.Reset for a cycle's mark scratch: b covers every
// handle id, all clear, and a b that has to be reallocated reserves the
// table's capacity, so it grows when the table does and not once per
// cycle that met new handles.
func (h *Heap) ResetMarks(b *Bitset) {
	*b = Grow((*b)[:0], BitsetWords(len(h.handles)), BitsetWords(h.handleCap))
}

// SizeOf reports the arena footprint of a live object.
func (h *Heap) SizeOf(id HandleID) int { return int(h.h(id).size) }

// AddrOf reports a live object's arena address (tests, fragmentation
// studies).
func (h *Heap) AddrOf(id HandleID) int { return int(h.h(id).addr) }

// NumRefSlots reports how many reference slots a live object carries.
func (h *Heap) NumRefSlots(id HandleID) int { return int(h.h(id).refLen) }

// GetRef reads reference slot i of object id.
func (h *Heap) GetRef(id HandleID, i int) HandleID {
	hd := h.h(id)
	if uint(i) >= uint(hd.refLen) {
		h.badSlot(hd, i)
	}
	return h.slab[hd.refOff+int32(i)]
}

// SetRef writes reference slot i of object id. The *runtime* is
// responsible for routing the corresponding contamination event to the
// collector before calling SetRef; the heap is policy-free.
func (h *Heap) SetRef(id HandleID, i int, val HandleID) {
	hd := h.h(id)
	if uint(i) >= uint(hd.refLen) {
		h.badSlot(hd, i)
	}
	if val != Nil && !h.Live(val) {
		panic("heap: storing dangling reference")
	}
	h.slab[hd.refOff+int32(i)] = val
}

// RefSlots returns a live object's reference slots as a read-only view
// of the shared slab — the contiguous walk the mark phase performs.
// Callers must not retain the slice across any heap mutation.
func (h *Heap) RefSlots(id HandleID) []HandleID { return h.refs(h.h(id)) }

// Refs iterates over the non-nil outgoing references of a live object,
// the traversal the MSA mark phase performs.
func (h *Heap) Refs(id HandleID, fn func(HandleID)) {
	for _, r := range h.refs(h.h(id)) {
		if r != Nil {
			fn(r)
		}
	}
}

// ForEachLive visits every live object in handle order (the MSA sweep
// order), walking the live bitmap word-at-a-time. The current bit is
// re-checked against the live array before each visit, so a callback
// that frees objects ahead of the cursor (within the current word)
// observes the same skip-dead semantics the handle-record walk had.
func (h *Heap) ForEachLive(fn func(HandleID)) {
	lb := h.liveBits
	for k, w := range lb {
		base := k << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			if lb[k]&(1<<uint(b)) != 0 {
				fn(HandleID(base + b))
			}
		}
	}
	runtime.KeepAlive(h) // lb's mapping lives as long as h does
}

// LiveWords exposes the live bitmap as a read-only word view covering
// the whole handle table — the sweep phase's input. Callers must not
// retain it across heap growth.
func (h *Heap) LiveWords() Bitset { return h.liveBits }

// Reset returns the heap to its freshly constructed state — empty class
// table, one-slot handle table, empty slab, fully free arena, zeroed
// counters — without releasing any capacity. A pooled execution shard
// calls this between matrix cells so a sweep stops paying per-cell
// arena and table construction; a reset heap is observably identical to
// heap.New(h.Arena().Size()).
func (h *Heap) Reset() {
	h.arena.Reset()
	h.classes = h.classes[:0]
	h.layouts = h.layouts[:0]
	clear(h.byName)
	// Shrink to the Nil slot. Stale records beyond len are zeroed by
	// Alloc's Grow before they are ever reachable.
	h.handles = h.handles[:1]
	h.handleCap = 1
	h.freeHead = Nil
	// Clear the live bitmap through its length: nothing beyond it was
	// ever set, and clearing through the capacity would write, and so
	// commit, a bound-sized mapping at every Reset.
	clear(h.liveBits)
	h.liveBits = h.liveBits[:1]
	h.slab = h.slab[:0]
	h.stats = Stats{}
}
