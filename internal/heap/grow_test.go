package heap

import (
	"errors"
	"testing"
)

// ruleCap recomputes the growth rule from what a test can observe right
// after the Alloc that grew the table: the table held n handles, the new
// object's bytes were already out of the arena, nothing has moved since.
func ruleCap(h *Heap, n int) int {
	c := min(2*n, max(n+n/4, n+1+h.Arena().FreeBytes()/minInstanceBytes))
	return min(c, 1+h.Arena().Size()/minInstanceBytes)
}

// checkGrown asserts the state every growth step must leave behind: the
// capacity the rule grants, backing arrays that cover it, and nothing
// but zero records, clear live bits and Nil refs beyond the lengths.
func checkGrown(t *testing.T, h *Heap, n int) {
	t.Helper()
	if got, want := h.HandleCap(), ruleCap(h, n); got != want {
		t.Fatalf("growth at %d handles: HandleCap %d, rule says %d", n, got, want)
	}
	if hard := 1 + h.Arena().Size()/minInstanceBytes; h.HandleCap() > hard {
		t.Fatalf("growth at %d handles: HandleCap %d exceeds what the arena can ever hold, %d", n, h.HandleCap(), hard)
	}
	if cap(h.handles) < h.HandleCap() || cap(h.liveBits) < BitsetWords(h.HandleCap()) {
		t.Fatalf("growth at %d handles: HandleCap %d but cap(handles) %d, cap(liveBits) %d words",
			n, h.HandleCap(), cap(h.handles), cap(h.liveBits))
	}
	for i, hd := range h.handles[len(h.handles):cap(h.handles)] {
		if hd != (handle{}) {
			t.Fatalf("growth at %d handles: stale record %+v in grown slot %d", n, hd, len(h.handles)+i)
		}
	}
	for i, w := range h.liveBits[len(h.liveBits):cap(h.liveBits)] {
		if w != 0 {
			t.Fatalf("growth at %d handles: stale live word %#x at %d", n, w, len(h.liveBits)+i)
		}
	}
	for i, r := range h.slab[len(h.slab):cap(h.slab)] {
		if r != Nil {
			t.Fatalf("growth at %d handles: stale ref %d in grown slab slot %d", n, r, len(h.slab)+i)
		}
	}
}

// TestHandleTableGrowthScript scripts a cold cell against a model and
// stops at every growth step of the handle table (in the manner of
// gostore's arena tests: exact accounting after scripted operations).
// With room in the arena the table doubles, so 3000 handles cost twelve
// steps; at each one every earlier object still reads as the model says
// and everything the step uncovered reads as zero.
func TestHandleTableGrowthScript(t *testing.T) {
	h := New(1 << 20)
	node := h.DefineClass(Class{Name: "Node", Refs: 2, Data: 8})
	arr := h.DefineClass(Class{Name: "Arr", IsArray: true})
	type obj struct {
		id   HandleID
		addr int
		refs []HandleID
	}
	var model []obj
	steps := 0
	// Where this build maps the tables they are reserved at the bound
	// and a growth step moves nothing.
	mapped, base := cap(h.handles) == h.HandleBound(), &h.handles[0]
	for i := 0; i < 3000; i++ {
		n, before := h.NumHandles(), h.HandleCap()
		cls, extra := node, 0
		if i%7 == 3 {
			cls, extra = arr, i%5
		}
		id, err := h.Alloc(cls, extra)
		if err != nil {
			t.Fatal(err)
		}
		o := obj{id: id, addr: h.AddrOf(id), refs: make([]HandleID, h.NumRefSlots(id))}
		for s := range o.refs {
			if len(model) > 0 && (i+s)%3 != 0 {
				o.refs[s] = model[(i*31+s)%len(model)].id
				h.SetRef(id, s, o.refs[s])
			}
		}
		model = append(model, o)
		if h.HandleCap() == before {
			continue
		}
		steps++
		if h.HandleCap() != 2*n {
			t.Fatalf("growth at %d handles: HandleCap %d, want %d (the arena has room: plain doubling)", n, h.HandleCap(), 2*n)
		}
		checkGrown(t, h, n)
		if mapped && &h.handles[0] != base {
			t.Fatalf("growth at %d handles: the mapped handle table moved", n)
		}
		for _, m := range model {
			if !h.Live(m.id) || h.AddrOf(m.id) != m.addr || h.NumRefSlots(m.id) != len(m.refs) {
				t.Fatalf("growth at %d handles: object %d did not survive the copy", n, m.id)
			}
			for s, want := range m.refs {
				if got := h.GetRef(m.id, s); got != want {
					t.Fatalf("growth at %d handles: ref %d of object %d reads %d, want %d", n, s, m.id, got, want)
				}
			}
		}
	}
	if steps != 12 {
		t.Fatalf("3000 handles took %d growth steps, want 12 (1, 2, 4, ... 4096)", steps)
	}
}

// TestHandleTableArenaClamp fills tight arenas to exhaustion. Whatever
// the object size, the table never reserves more handles than the arena
// could ever hold, every step is the rule's, and a table that fills up
// in a nearly full arena reserves what the arena can still take (or a
// quarter), not a doubled tail it can never use.
func TestHandleTableArenaClamp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		arena int
		class Class
	}{
		{"bare headers", 4 << 10, Class{Name: "Hdr"}},
		{"64-byte nodes", 34 * 64, Class{Name: "Node", Refs: 2, Data: 48}},
		{"64-byte nodes, 2 MiB", 2 << 20, Class{Name: "Node", Refs: 2, Data: 48}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tc.arena)
			cls := h.DefineClass(tc.class)
			clamped := false
			for {
				n, before := h.NumHandles(), h.HandleCap()
				if _, err := h.Alloc(cls, 0); err != nil {
					if !errors.Is(err, ErrOutOfMemory) {
						t.Fatal(err)
					}
					break
				}
				if h.HandleCap() != before {
					checkGrown(t, h, n)
					clamped = clamped || h.HandleCap() < 2*n
				}
			}
			live, hard := h.NumLive(), 1+tc.arena/minInstanceBytes
			if h.HandleCap() > hard {
				t.Fatalf("HandleCap %d for a %d-byte arena, bound %d", h.HandleCap(), tc.arena, hard)
			}
			t.Logf("%d objects, HandleCap %d, bound %d, clamped=%v", live, h.HandleCap(), hard, clamped)
			if !clamped {
				t.Fatalf("%d objects filled the arena and no growth step was clamped", live)
			}
		})
	}
}

// TestGrowReusesAndZeroes pins the one growth function on its own:
// retained capacity is reused as it stands — Grow clears nothing, since
// every table reads zero past its length
// (TestTablesReadZeroPastTheirLength) — a reallocation reserves the
// asked capacity and reads zero past what it copies, and contents
// survive both.
func TestGrowReusesAndZeroes(t *testing.T) {
	backing := []int{1, 2, 3, 0, 0, 0}
	s := Grow(backing[:3], 5, 100)
	if &s[0] != &backing[0] || len(s) != 5 || cap(s) != 6 {
		t.Fatalf("Grow within capacity: len %d cap %d, or it left its backing array", len(s), cap(s))
	}
	s[3] = 4
	if backing[3] != 4 {
		t.Fatal("Grow within capacity copied the table")
	}
	g := Grow(s, 7, 16)
	if len(g) != 7 || cap(g) != 16 || g[0] != 1 || g[1] != 2 || g[2] != 3 || g[3] != 4 {
		t.Fatalf("Grow past capacity: len %d cap %d %v", len(g), cap(g), g)
	}
	for i, v := range g[5:cap(g)] {
		if v != 0 {
			t.Fatalf("Grow past capacity: slot %d reads %d", 5+i, v)
		}
	}
	if g = Grow(g, 40, 20); len(g) != 40 || cap(g) != 40 {
		t.Fatalf("Grow with c < n: len %d cap %d, want 40/40", len(g), cap(g))
	}
}
