package heap_test

import (
	"slices"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// checkLayouts holds every class defined on h to InstanceSize: what
// InstanceBytes reports, and where Alloc and Reinit place an instance —
// its extent, its slot count and its class — with no extra slots and,
// for an array class, with some. A plain class refuses extra slots.
func checkLayouts(t *testing.T, h *heap.Heap, what string) {
	t.Helper()
	for c := heap.ClassID(0); int(c) < h.NumClasses(); c++ {
		cls := h.ClassDef(c)
		extras := []int{0}
		if cls.IsArray {
			extras = append(extras, 1, 7)
		} else if _, err := h.Alloc(c, 1); err == nil {
			t.Fatalf("%s: class %q is not an array and took an extra slot", what, cls.Name)
		}
		for _, extra := range extras {
			want := heap.InstanceSize(cls, extra)
			if got := h.InstanceBytes(c, extra); got != want {
				t.Fatalf("%s: InstanceBytes(%q, %d) = %d, InstanceSize says %d", what, cls.Name, extra, got, want)
			}
			id, err := h.Alloc(c, extra)
			if err != nil {
				t.Fatal(err)
			}
			for step := range 2 {
				if h.SizeOf(id) != want || h.NumRefSlots(id) != cls.Refs+extra || h.ClassOf(id) != c {
					t.Fatalf("%s: %q with %d extra slots (step %d) is %d bytes, %d slots, class %d; want %d, %d, %d",
						what, cls.Name, extra, step, h.SizeOf(id), h.NumRefSlots(id), h.ClassOf(id), want, cls.Refs+extra, c)
				}
				if err := h.Reinit(id, c, extra); err != nil {
					t.Fatal(err)
				}
			}
			h.Free(id)
		}
	}
}

// TestAllocLayoutMatchesInstanceSize: the layout DefineClass works out
// once is InstanceSize's answer for every class every analog defines, as
// the analog left the heap. Reset must drop the layouts with the class
// table: the same classes defined again in reverse order take each
// other's ids, and each must read its own layout.
func TestAllocLayoutMatchesInstanceSize(t *testing.T) {
	for _, spec := range workload.All() {
		h := heap.New(64 << 20)
		spec.Run(vm.New(h, vm.None()), 1)
		if h.NumClasses() < 2 {
			t.Fatalf("%s defines %d classes, want at least 2 to reorder", spec.Name, h.NumClasses())
		}
		checkLayouts(t, h, spec.Name)

		var defs []heap.Class
		for c := 0; c < h.NumClasses(); c++ {
			defs = append(defs, h.ClassDef(heap.ClassID(c)))
		}
		h.Reset()
		for _, cls := range slices.Backward(defs) {
			h.DefineClass(cls)
		}
		if got := h.ClassDef(0); got != defs[len(defs)-1] {
			t.Fatalf("%s: after Reset class 0 is %q, want %q", spec.Name, got.Name, defs[len(defs)-1].Name)
		}
		checkLayouts(t, h, spec.Name+" after Reset")
	}
}
