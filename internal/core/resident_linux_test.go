package core

import (
	"os"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/heap"
	"repro/internal/vm"
)

// residentBytes reports how much of meta's mapping, read through its
// capacity, the kernel holds in memory (mincore(2)).
func residentBytes(t *testing.T, meta []objMeta) int {
	t.Helper()
	page := os.Getpagesize()
	n := (cap(meta)*int(unsafe.Sizeof(objMeta{})) + page - 1) / page
	vec := make([]byte, n)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(unsafe.SliceData(meta))),
		uintptr(n*page), uintptr(unsafe.Pointer(unsafe.SliceData(vec))))
	if errno != 0 {
		t.Skipf("mincore: %v", errno)
	}
	resident := 0
	for _, b := range vec {
		resident += int(b & 1)
	}
	return resident * page
}

// TestMetaIsResidentAsFarAsUsed is TestMappedTablesAreNotResident for
// the records CG.grow grants: a cell of 2^18 objects ends with 2^18+1
// handles and a HandleCap of 2^19, and its object records are resident
// as far as the handles reach — 4 MiB — not through the 8 MiB granted.
// The slack is one 2 MiB page, for a host that backs the mapping with
// huge pages. Then Reset: the records go with the collector, and the
// next cell's, no more than the slack of them resident, start zeroed.
func TestMetaIsResidentAsFarAsUsed(t *testing.T) {
	const objects, slack = 1 << 18, 2 << 20
	h := heap.New(16 << 20)
	leaf := h.DefineClass(heap.Class{Name: "Leaf"})
	cg := New(DefaultConfig())
	rt := vm.New(h, cg)
	if cap(cg.meta) == 0 { // Attach hands the mapping out empty, or none
		t.Skip("no mapping on this build: meta is a Go slice")
	}
	f := rt.NewThread(0).Top()
	for i := 0; i < objects; i++ {
		f.MustNew(leaf)
	}
	used := h.NumHandles() * int(unsafe.Sizeof(objMeta{}))
	granted := len(cg.meta) * int(unsafe.Sizeof(objMeta{}))
	if granted < 2*used-slack {
		t.Fatalf("%d handles were granted %d bytes of records: too close to the %d used to tell them apart", h.NumHandles(), granted, used)
	}
	grown := residentBytes(t, cg.meta)
	if grown > used+slack {
		t.Errorf("records for %d handles are resident through %d KiB, want under %d (%d KiB granted)",
			h.NumHandles(), grown>>10, (used+slack)>>10, granted>>10)
	}
	t.Logf("records: %d KiB used, %d KiB granted, %d KiB resident", used>>10, granted>>10, grown>>10)

	firstHandles := h.NumHandles()
	next := New(DefaultConfig())
	rt.Reset(checked(t, next))
	if reset := residentBytes(t, next.meta); reset > slack {
		t.Errorf("after Reset the records are resident through %d KiB (%d before it), want under %d",
			reset>>10, grown>>10, slack>>10)
	}
	for i, m := range next.meta[:firstHandles] {
		if m != (objMeta{}) {
			t.Fatalf("the second cell starts on record %d = %+v left by the first", i, m)
		}
	}
	node := h.DefineClass(heap.Class{Name: "Node", Refs: 1})
	th := rt.NewThread(0)
	for round := 0; round < 4; round++ {
		th.CallVoid(1, func(f *vm.Frame) {
			prev := heap.Nil
			for i := 0; i < 1000; i++ {
				id := f.MustNew(node)
				if i%3 != 0 {
					f.PutField(id, 0, prev)
				}
				prev = id
			}
			f.SetLocal(0, prev)
		})
	}
	checkSets(t, next)
	for k := h.NumHandles(); k < len(next.meta); k++ {
		if next.meta[k] != (objMeta{}) {
			t.Fatalf("record %d, past the second cell's %d handles, reads %+v", k, h.NumHandles(), next.meta[k])
		}
	}
}
