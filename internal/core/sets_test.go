package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// checkSets walks everything that names a set slot — the frames' lists,
// the free list, the representatives' objMeta.link — and fails t unless
// they describe the same partition:
//
//   - a slot on a frame list is in range, live (size > 0), on that list
//     once and on no other, back-linked to its predecessor, and records
//     that frame as its dependent frame;
//   - its membership list is size objects long, ends at tail, and every
//     member's representative names the slot back;
//   - the free list holds only empty slots, none of them on a frame list,
//     and linked + free slots make up the whole table but slot 0;
//   - every object CG holds live resolves to a linked slot, one
//     representative per slot, and no linked slot goes unclaimed.
//
// It is valid between events, not inside a collection cycle.
func checkSets(t testing.TB, c *CG) {
	t.Helper()
	const onFrame, onFree = 1, 2
	where := make([]uint8, len(c.sets))
	linked := 0
	c.rt.EachFrame(func(f *vm.Frame) {
		prev := int32(0)
		for slot := f.GCHead; slot != 0; slot = c.sets[slot].next {
			if slot < 0 || int(slot) >= len(c.sets) {
				t.Fatalf("frame %d lists slot %d outside the table of %d", f.ID, slot, len(c.sets))
			}
			if where[slot] != 0 {
				t.Fatalf("slot %d is on a frame list twice (again on frame %d)", slot, f.ID)
			}
			where[slot] = onFrame
			linked++
			s := c.sets[slot]
			if s.size <= 0 {
				t.Fatalf("frame %d lists free slot %d", f.ID, slot)
			}
			if s.prev != prev || s.frame != f.Index {
				t.Fatalf("slot %d on frame %d (index %d) after slot %d records prev %d, frame index %d",
					slot, f.ID, f.Index, prev, s.prev, s.frame)
			}
			n, last := int32(0), heap.Nil
			for o := s.head; o != heap.Nil && n <= s.size; o = c.meta[o].next {
				if back := c.setOf(o); back != slot {
					t.Fatalf("object %d is a member of slot %d but its representative names slot %d", o, slot, back)
				}
				n, last = n+1, o
			}
			if n != s.size || last != s.tail {
				t.Fatalf("slot %d records size %d and tail %d; its list has %d members ending at %d", slot, s.size, s.tail, n, last)
			}
			prev = slot
		}
	})
	free := 0
	for slot := c.freeSets; slot != 0; slot = c.sets[slot].next {
		if where[slot] != 0 {
			t.Fatalf("free list reaches slot %d, already seen (state %d)", slot, where[slot])
		}
		where[slot] = onFree
		if c.sets[slot].size != 0 {
			t.Fatalf("free slot %d has size %d", slot, c.sets[slot].size)
		}
		free++
	}
	if linked+free != len(c.sets)-1 {
		t.Fatalf("%d linked + %d free slots, table holds %d", linked, free, len(c.sets)-1)
	}
	reps := make([]heap.HandleID, len(c.sets)) // slot -> the representative that names it
	claimed := 0
	c.heap.ForEachLive(func(id heap.HandleID) {
		if c.IsTainted(id) {
			return // dead, waiting on a recycle list
		}
		r := c.find(id)
		if c.meta[r].link >= 0 {
			t.Fatalf("live object %d resolves to %d, whose link %d is not a representative's", id, r, c.meta[r].link)
		}
		slot := -c.meta[r].link >> rankBits
		if slot <= 0 || int(slot) >= len(c.sets) || where[slot] != onFrame {
			t.Fatalf("live object %d (representative %d) names slot %d, which is on no frame's list", id, r, slot)
		}
		switch reps[slot] {
		case heap.Nil:
			reps[slot] = r
			claimed++
		case r:
		default:
			t.Fatalf("slot %d is named by two representatives, %d and %d", slot, reps[slot], r)
		}
	})
	if claimed != linked {
		t.Fatalf("%d slots are linked, %d have a live representative", linked, claimed)
	}
}

// slotCounts reports how many slots hold a set, how many sit on the free
// list, and how many the table has (slot 0 not counted).
func slotCounts(c *CG) (live, free, total int) {
	for _, s := range c.sets[1:] {
		if s.size > 0 {
			live++
		}
	}
	for slot := c.freeSets; slot != 0; slot = c.sets[slot].next {
		free++
	}
	return live, free, len(c.sets) - 1
}

// checked returns c's event table with checkSets run after every frame
// pop that reaches CG and after every collection cycle.
func checked(t testing.TB, c *CG) vm.Events {
	ev := c.Events()
	ev.FramePop = func(f *vm.Frame) int {
		n := c.OnFramePop(f)
		checkSets(t, c)
		return n
	}
	ev.Collect = func() int {
		n := c.Collect()
		checkSets(t, c)
		return n
	}
	return ev
}

// TestSetSlotsScripted drives one program through every event that
// takes, moves or frees a set record and compares, after every step, the
// exact slot counts and every frame's list — sets in list order, members
// in membership order — with what the step must leave (the gostore arena
// tests' shape: scripted ops, exact Info() after each). The arena holds
// exactly eight objects, so the ninth allocation is a recycled reuse.
// The two cycles differ only in where j, static to CG but reachable only
// from the root frame, is rebuilt.
func TestSetSlotsScripted(t *testing.T) {
	for _, reset := range []bool{false, true} {
		cfg := Config{StaticOpt: true, Recycle: true, ResetOnGC: reset, Checked: true}
		h := heap.New(8 * 32)
		obj := h.DefineClass(heap.Class{Name: "Obj", Refs: 2, Data: 16}) // 32 bytes
		names := map[heap.HandleID]string{}
		var deaths []string
		cfg.FreeHook = func(id heap.HandleID) { deaths = append(deaths, names[id]) }
		cg := New(cfg)
		rt := vm.New(h, checked(t, cg))

		state := func() string {
			live, free, total := slotCounts(cg)
			var b strings.Builder
			fmt.Fprintf(&b, "%d live %d free of %d |", live, free, total)
			rt.EachFrame(func(f *vm.Frame) {
				if f.Thread == nil {
					b.WriteString(" S[")
				} else {
					fmt.Fprintf(&b, " %d.%d[", f.Thread.ID, f.Depth)
				}
				for slot := f.GCHead; slot != 0; slot = cg.sets[slot].next {
					if slot != f.GCHead {
						b.WriteByte(' ')
					}
					for o := cg.sets[slot].head; o != heap.Nil; o = cg.meta[o].next {
						b.WriteString(names[o])
					}
				}
				b.WriteByte(']')
			})
			return b.String()
		}
		step := func(what, want string) {
			t.Helper()
			checkSets(t, cg)
			if got := state(); got != want {
				t.Fatalf("reset=%v, after %s:\n got %s\nwant %s", reset, what, got, want)
			}
		}
		alloc := func(f *vm.Frame, name string) heap.HandleID {
			id := f.MustNew(obj)
			names[id] = name
			return id
		}

		step("attach", "0 live 0 free of 0 | S[]")
		t1 := rt.NewThread(0)
		f1 := t1.Top()
		a, b, c := alloc(f1, "a"), alloc(f1, "b"), alloc(f1, "c")
		step("alloc a b c", "3 live 0 free of 3 | S[] 1.1[c b a]")
		f1.PutField(a, 0, b)
		step("a.0 = b", "2 live 1 free of 3 | S[] 1.1[ab c]")
		e := t1.Call(0, func(f2 *vm.Frame) heap.HandleID {
			d := alloc(f2, "d")
			step("alloc d one frame up", "3 live 0 free of 3 | S[] 1.1[ab c] 1.2[d]")
			e := alloc(f2, "e")
			step("alloc e", "4 live 0 free of 4 | S[] 1.1[ab c] 1.2[e d]")
			f2.PutField(e, 0, d)
			step("e.0 = d", "3 live 1 free of 4 | S[] 1.1[ab c] 1.2[ed]")
			return e
		})
		step("areturn e", "3 live 1 free of 4 | S[] 1.1[ed ab c]")
		f1.PutStatic(rt.StaticSlot("s"), c)
		step("putstatic c", "3 live 1 free of 4 | S[c] 1.1[ed ab]")
		f1.PutField(a, 1, c)
		step("a.1 = c, a reference to a static object (§3.4)", "3 live 1 free of 4 | S[c] 1.1[ed ab]")
		f1.PutField(c, 0, a)
		step("c.0 = a", "2 live 2 free of 4 | S[cab] 1.1[ed]")
		t2 := rt.NewThread(1)
		t2.Top().SetLocal(0, e)
		step("a second thread touches e", "2 live 2 free of 4 | S[ed cab] 1.1[] 2.1[]")
		t1.CallVoid(0, func(f2 *vm.Frame) {
			f, g := alloc(f2, "f"), alloc(f2, "g")
			f2.PutField(f, 0, g)
			alloc(f2, "h")
			step("alloc f g h, f.0 = g", "4 live 0 free of 4 | S[ed cab] 1.1[] 1.2[h fg] 2.1[]")
		})
		step("frame pop", "2 live 2 free of 4 | S[ed cab] 1.1[] 2.1[]")
		if got := strings.Join(deaths, ""); got != "hfg" {
			t.Fatalf("reset=%v: the pop freed %q, want h then f then g", reset, got)
		}
		i := alloc(f1, "i")
		step("alloc i into a full arena", "3 live 1 free of 4 | S[ed cab] 1.1[i] 2.1[]")
		j := alloc(f1, "j")
		if st := cg.Stats(); st.Reused != 2 || cg.RecycledObjects() != 1 || cg.MSAStats().Cycles != 0 {
			t.Fatalf("reset=%v: i and j did not come from recycled storage: reused %d, %d still recycled, %d cycles",
				reset, st.Reused, cg.RecycledObjects(), cg.MSAStats().Cycles)
		}
		finger := rt.StaticSlot("finger")
		f1.PutStatic(finger, j)
		f1.PutStatic(finger, heap.Nil)
		step("alloc j, a static finger touches it and points away", "4 live 0 free of 4 | S[j ed cab] 1.1[i] 2.1[]")
		f1.Forget(i)
		// The cycle frees every slot and rebuilds: c, a, b from the static
		// roots (slot 1, with 2 taken and freed twice), e and d from the
		// root frame's operands (slots 2 and 3, 3 freed), then j (slot 3).
		// i is swept; the table ends one slot shorter than it was.
		if freed := rt.ForceCollect(); freed != 1 || !cg.IsTainted(i) {
			t.Fatalf("reset=%v: the cycle swept %d objects (i tainted: %v), want i alone", reset, freed, cg.IsTainted(i))
		}
		if reset {
			step("cycle", "3 live 0 free of 3 | S[ed cab] 1.1[j] 2.1[]")
		} else {
			step("cycle", "3 live 0 free of 3 | S[j ed cab] 1.1[] 2.1[]")
		}

		cg = New(cfg)
		rt.Reset(checked(t, cg)) // the old tables are unmapped; these are fresh
		step("Runtime.Reset", "0 live 0 free of 0 | S[]")
		obj = h.DefineClass(heap.Class{Name: "Obj", Refs: 2, Data: 16})
		alloc(rt.NewThread(0).Top(), "a")
		step("alloc a", "1 live 0 free of 1 | S[] 1.1[a]")
	}
}

// TestNeverLinkedObjectsHoldOneSlotEach is the table's worst case: n
// live objects that never reference one another are n sets and hold n
// slots — what the handle-indexed table cost for them, and no more — and
// the frame's pop frees them newest first.
func TestNeverLinkedObjectsHoldOneSlotEach(t *testing.T) {
	const n = 1000
	var deaths []heap.HandleID
	cfg := checkedCfg()
	cfg.FreeHook = func(id heap.HandleID) { deaths = append(deaths, id) }
	rt, cg, node := newRT(t, cfg, 1<<20)
	th := rt.NewThread(0)
	var ids []heap.HandleID
	th.CallVoid(0, func(f *vm.Frame) {
		for i := 0; i < n; i++ {
			ids = append(ids, f.MustNew(node))
		}
		if live, free, total := slotCounts(cg); live != n || free != 0 || total != n {
			t.Fatalf("%d unlinked objects: %d live, %d free of %d slots", n, live, free, total)
		}
	})
	if live, free, total := slotCounts(cg); live != 0 || free != n || total != n {
		t.Fatalf("after the pop: %d live, %d free of %d slots", live, free, total)
	}
	if len(deaths) != n {
		t.Fatalf("the pop freed %d objects, want %d", len(deaths), n)
	}
	for i, id := range deaths {
		if want := ids[n-1-i]; id != want {
			t.Fatalf("death %d is object %d, want %d (allocation-reverse order)", i, id, want)
		}
	}
	// A second frame with as many sets reuses the freed slots.
	th.CallVoid(0, func(f *vm.Frame) {
		for i := 0; i < n; i++ {
			f.MustNew(node)
		}
	})
	if _, _, total := slotCounts(cg); total != n {
		t.Fatalf("a second frame of %d sets grew the table to %d slots", n, total)
	}
}

// TestSetsStayConsistentOverAnalogs runs the eight analogs at size 10,
// a collection cycle every 700 operations, with checkSets after every
// frame pop and every cycle.
func TestSetsStayConsistentOverAnalogs(t *testing.T) {
	for _, spec := range workload.All() {
		for _, cfg := range []Config{
			{StaticOpt: true, Checked: true},
			{StaticOpt: true, Recycle: true, ResetOnGC: true, Checked: true},
		} {
			name := spec.Name + "/cg"
			if cfg.Recycle {
				name += "+recycle+reset+packed"
			}
			t.Run(name, func(t *testing.T) {
				cg := New(cfg)
				ev := checked(t, cg)
				ev.GCEvery = 700
				rt := vm.New(heap.New(64<<20), ev)
				spec.Run(rt, 10)
				checkSets(t, cg)
				if rt.GCCycles() == 0 || cg.Stats().Popped == 0 {
					t.Fatalf("%d cycles, %d objects popped: the run exercised nothing", rt.GCCycles(), cg.Stats().Popped)
				}
			})
		}
	}
}
