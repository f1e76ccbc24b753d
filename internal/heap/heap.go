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

// extHeads bounds the extent lengths the ref slab lists one by one: a
// length of extHeads slots or more shares a list with the lengths its
// capacity class holds (extList).
const extHeads = 1024

// extLists counts the slab's free lists: one per length below extHeads
// (list 0 goes unused) and eight per doubling above it, up to maxSlab.
const extLists = extHeads + 28<<3

// extList names the free list for extents of n slots and the slots each
// extent on it spans. A length below extHeads has a list of its own and
// spans just its length. A longer one is rounded up to the next capacity
// with three bits below its leading one — at most an eighth more — so
// extents of any lengths in one class serve each other, and a churn of
// long objects carves no more than its peak of live ones in each class.
func extList(n int) (list, span int) {
	if n < extHeads {
		return n, n
	}
	shift := bits.Len(uint(n-1)) - 4 // n-1 has 10 to 31 bits
	q := (n - 1) >> shift            // its leading four bits: 8 to 15
	return extHeads + shift<<3 + q - 8, (q + 1) << shift
}

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
// extent (offset, length), and a freed object's extent goes to the
// slab's free list for its length (Heap.extFree). The object's size is
// not recorded: every instance size is a multiple of 8, so the arena
// answers it from the page the object lies in (Arena.SizeAt). The record
// is 16 pointer-free bytes (the thesis's handle is a pointer beside CG's
// fields, §3.1.1): addr is int32 behind MaxArenaBytes.
type handle struct {
	cls    ClassID // the object's ClassID+1; 0 iff the slot is free (or Nil's)
	addr   int32   // arena address; in a free slot, the next free slot's id (Heap.freeHead)
	refOff int32   // base of this handle's extent in the ref slab
	refLen int32   // reference slots (current instance)
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
	// handles, liveBits and slab are the plain slices the hot paths
	// index and Grow grows; tabs holds their memory (see tables) for the
	// one cell the heap serves. New and Reset map handles and liveBits
	// at HandleBound slots, which handleCap never passes, so within the
	// mapping Grow never copies.
	handles []handle
	// handleCap is the capacity the growth rule has granted the handle
	// table, at most cap(handles). It starts over at Reset, so a reset
	// heap and the tables that follow it grow in step with the cell
	// they serve, not with the largest cell they ever held.
	handleCap int
	freeHead  HandleID // LIFO of free slots, linked through their addr words
	// slab is the single backing store for every handle's reference
	// slots: handle i owns slab[refOff : refOff+refLen], and slot 0,
	// like the Nil handle, belongs to no one. Extents are recycled by
	// length, not with their handle slot: Free pushes an object's extent
	// on extFree[refLen], and an allocation of n slots pops extFree[n]
	// before it carves a fresh extent off the slab's tail, so in steady
	// state Alloc/Reinit/Free perform no Go allocation and the mark phase
	// walks contiguous memory. Lengths of extHeads slots or more are
	// listed by capacity class instead (extList). It is reserved at slot
	// 0 and one slot per refBytes of arena, what live slots can ever
	// use; extents waiting on the list of a length no one allocates,
	// and the rounding of long ones, can carve past that, and then it
	// doubles on the Go heap.
	slab []HandleID
	// extFree[extList(n)] heads the list of free extents for n slots:
	// the offset of the first one's first slot, 0 when the list is
	// empty. Each extent's first slot holds the next one's offset the
	// same way.
	extFree [extLists]int32
	arena   *Arena
	stats   Stats
	// liveBits is the live set word-packed, maintained by Alloc/Free:
	// bit i is set iff handles[i].cls != 0. The sweep phase
	// consumes it directly — garbage in a 64-handle window is
	// live &^ mark, one AND-NOT per word — and ForEachLive/NumLive walk
	// words instead of handle records.
	liveBits Bitset
	tabs     tables // these three tables and every one MapTable maps on the heap
}

// New returns a heap whose object space spans arenaBytes.
func New(arenaBytes int) *Heap {
	h := new(Heap)
	h.init(NewArena(arenaBytes))
	return h
}

// init makes h an empty heap over a, as New builds it, with fresh tables
// for a cell: a one-slot handle table and slab, each slot 0 unused (the
// Nil handle; the end of every extFree list). It writes a composite
// literal rather than copying a built heap: a copy would carry
// mappings whose cleanup is registered on the source (tables).
func (h *Heap) init(a *Arena) {
	*h = Heap{arena: a, byName: make(map[string]ClassID)}
	bound := h.HandleBound()
	h.handleCap = 1
	h.handles = Grow(MapTable[handle](h, bound), 1, 1)
	h.liveBits = Grow(MapTable[uint64](h, BitsetWords(bound)), 1, 1)
	h.slab = Grow(MapTable[HandleID](h, 1+h.arena.Size()/refBytes), 1, 1)
}

// Release unmaps every table mapped on the heap — its own, the owner
// table and the collector's — and its arena's now rather than once a
// Go collection finds the heap unreachable: for a heap nobody will use
// again, such as the shard of a cell the engine has handed over. The
// heap and its tables must not be used afterwards; a second Release
// does nothing.
func (h *Heap) Release() {
	h.tabs.release()
	h.handles, h.liveBits, h.slab = nil, nil, nil
	h.arena.Release()
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
func (h *Heap) ClassOf(id HandleID) ClassID { return h.h(id).cls - 1 }

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
// per-event accessors. The Nil slot's cls stays 0 like a freed slot's.
func (h *Heap) h(id HandleID) *handle {
	hd := &h.handles[int(id)]
	if hd.cls == 0 {
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
	panic(fmt.Sprintf("heap: ref slot %d out of range on %s", i, h.classes[hd.cls-1].Name))
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
		// Past their lengths the tables read zero, so Grow uncovers a
		// zero record and a clear live bit without writing them.
		h.handles = Grow(h.handles, n+1, h.handleCap)
		h.liveBits = Grow(h.liveBits, BitsetWords(n+1), BitsetWords(h.handleCap))
		id = HandleID(n)
	}
	hd := &h.handles[int(id)]
	hd.cls = c + 1
	hd.addr = int32(addr)
	h.liveBits.Set(int(id))
	h.bindRefs(hd, nrefs)
	h.stats.Allocs++
	h.stats.BytesAlloc += uint64(size)
	return id, nil
}

// bindRefs points hd at a zeroed slab extent of nrefs slots: none for
// no slots, a freed extent of exactly that length if extFree lists one,
// else a fresh one carved off the slab tail.
func (h *Heap) bindRefs(hd *handle, nrefs int) {
	hd.refLen = int32(nrefs)
	if nrefs == 0 {
		return
	}
	if nrefs < extHeads {
		if off := h.extFree[nrefs]; off != 0 {
			h.extFree[nrefs] = int32(h.slab[off])
			clearRefs(h.slab[off : off+int32(nrefs)])
			hd.refOff = off
			return
		}
	}
	h.carve(hd, nrefs)
}

// carve is bindRefs' cold half: it binds hd to a free extent from the
// capacity class of a long length, else to a fresh extent off the slab
// tail that spans what its list's extents span. An extent of 256 slots or
// more starts on a 64-byte boundary: clearing 2 KiB or more at an address
// that is not 8-byte aligned runs up to ten times slower on amd64.
// Past its reservation the slab doubles: free extents wait on the list of
// their own length, so arena bytes do not bound the slots carved.
//
//go:noinline
func (h *Heap) carve(hd *handle, nrefs int) {
	list, span := extList(nrefs)
	if off := h.extFree[list]; off != 0 {
		h.extFree[list] = int32(h.slab[off])
		clearRefs(h.slab[off : off+int32(nrefs)])
		hd.refOff = off
		return
	}
	off := len(h.slab)
	if span >= 256 {
		off = (off + 15) &^ 15
	}
	if off+span > maxSlab {
		panic("heap: ref slab exceeds 2^31 slots")
	}
	h.slab = Grow(h.slab, off+span, min(2*cap(h.slab), maxSlab))
	hd.refOff = int32(off)
}

// freeRefs pushes hd's extent on the free list for its length. Empty
// extents hold nothing.
func (h *Heap) freeRefs(hd *handle) {
	if n := int(hd.refLen); n > 0 {
		list, _ := extList(n)
		h.slab[hd.refOff] = HandleID(h.extFree[list])
		h.extFree[list] = hd.refOff
	}
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

// Free releases an object's arena extent, at the size the arena reads
// from the object's page, and recycles its handle slot and its slab
// extent. Freeing Nil or a dead handle panics: both collectors must
// agree on ownership, and a double free indicates a collector bug.
func (h *Heap) Free(id HandleID) {
	hd := h.h(id)
	addr := int(hd.addr)
	h.arena.Free(addr, h.arena.SizeAt(addr))
	h.freeRefs(hd)
	hd.addr, hd.cls = int32(h.freeHead), 0
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
// Sizes are read from the old arena, which stays in place until the
// new one is committed. Committing swaps the arena pointer and unmaps
// the old arena's tables: a copy of the new arena into the old would
// leave its tables' cleanup on the scratch arena, which unmaps them
// once it is collected (tables; go vet refuses the copy).
func (h *Heap) Compact() bool {
	a := NewArena(h.arena.Size())
	ok := true
	h.ForEachLive(func(id HandleID) {
		if ok {
			_, err := a.Alloc(h.SizeOf(id))
			ok = err == nil
		}
	})
	if !ok {
		a.Release()
		return false
	}
	// Same sizes in the same order over an empty arena: the same
	// addresses, now written down.
	a.Reset()
	h.ForEachLive(func(id HandleID) {
		addr, _ := a.Alloc(h.SizeOf(id))
		h.handles[int(id)].addr = int32(addr)
	})
	h.arena.Release()
	h.arena = a
	h.stats.Compactions++
	return true
}

// Reinit repurposes a live object's extent and handle for a fresh
// instance of class c with extra reference slots — the §3.7 recycling
// path, where a dead-but-unfreed object is handed out again without
// touching the allocator ("instead of having to free each object … we
// only update a pointer"). The extent keeps its original size (first-fit
// allows internal fragmentation); it must be at least as big as the new
// instance requires. The slab extent goes to its free list and one for
// the new length is bound: the same one, if the length is unchanged.
func (h *Heap) Reinit(id HandleID, c ClassID, extra int) error {
	hd := h.h(id)
	need, nrefs, err := h.footprint(c, extra)
	if err != nil {
		return err
	}
	if size := h.arena.SizeAt(int(hd.addr)); need > size {
		return fmt.Errorf("heap: recycled extent of %d bytes too small for %d", size, need)
	}
	hd.cls = c + 1
	h.freeRefs(hd)
	h.bindRefs(hd, nrefs)
	h.stats.Allocs++
	h.stats.BytesAlloc += uint64(need)
	return nil
}

// Live reports whether id names a currently allocated object. Nil is not
// live.
func (h *Heap) Live(id HandleID) bool {
	return int(id) < len(h.handles) && h.handles[int(id)].cls != 0
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
// (Grow(s, HandleCap(), HandleCap())) when they meet an id past
// their length, so they grow when the handle table does and never
// between.
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

// Grow returns s at length n >= len(s) with its contents preserved.
// Capacity s already has is reused as it stands, since every table
// reads zero past its length: it is born zero, from a fresh mapping or
// a fresh Go slice, lives one cell, and no owner truncates it and grows
// it again (TestTablesReadZeroPastTheirLength). A reallocation reserves
// capacity c in one step. The handle table and the ref slab choose c;
// handle-indexed side tables pass n = c = HandleCap().
func Grow[T any](s []T, n, c int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	g := make([]T, n, max(n, c))
	copy(g, s)
	return g
}

// SizeOf reports the arena footprint of a live object.
func (h *Heap) SizeOf(id HandleID) int { return h.arena.SizeAt(int(h.h(id).addr)) }

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

// Reset returns the heap to its freshly constructed state: it is
// Release followed by New's own initialiser over a fresh arena of the
// same size, so the tables and the arena's page records go with the
// cell that wrote them and the next cell faults in only what it writes.
// A reset heap is observably identical to heap.New(h.Arena().Size()).
// No product path resets a heap — each cell, and each repeat of one,
// runs on a shard built for it — so Reset stays for the frozen bench
// module's probes.
func (h *Heap) Reset() {
	h.Release()
	h.init(NewArena(h.arena.Size()))
}
