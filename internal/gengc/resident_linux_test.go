package gengc

import (
	"os"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/heap"
	"repro/internal/vm"
)

// residentBytes reports how much of flags' mapping, read through its
// capacity, the kernel holds in memory (mincore(2)).
func residentBytes(t *testing.T, flags []uint8) int {
	t.Helper()
	page := os.Getpagesize()
	n := (cap(flags) + page - 1) / page
	vec := make([]byte, n)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(unsafe.SliceData(flags))),
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

// TestFlagsAreResidentAsFarAsUsed is core's TestMetaIsResidentAsFarAsUsed
// for gen's flag bytes, which OnAlloc covers as CG.grow covers its
// records: a cell of 2^22 objects ends with 2^22+1 handles and a
// HandleCap of 2^23, and its flags are resident as far as the handles
// reach — 4 MiB — not through the 8 MiB granted. At a byte a handle the
// gap exceeds the one 2 MiB page of slack, for a host that backs the
// mapping with huge pages, only at this many objects. Then Reset: the
// flags go with the system, and the next cell's, no more than the slack
// of them resident, start zeroed.
func TestFlagsAreResidentAsFarAsUsed(t *testing.T) {
	const objects, slack = 1 << 22, 2 << 20
	h := heap.New(1 << 27)
	leaf := h.DefineClass(heap.Class{Name: "Leaf"})
	g := New()
	rt := vm.New(h, g)
	if cap(g.flags) == 0 { // Attach hands the mapping out empty, or none
		t.Skip("no mapping on this build: flags is a Go slice")
	}
	// The runtime's Alloc slot, without the frame that would hold every
	// object as an operand.
	for i := 0; i < objects; i++ {
		id, err := h.Alloc(leaf, 0)
		if err != nil {
			t.Fatal(err)
		}
		g.OnAlloc(id, nil)
	}
	used, granted := h.NumHandles(), len(g.flags)
	if granted < 2*used-slack {
		t.Fatalf("%d handles were granted %d bytes of flags: too close to the %d used to tell them apart", used, granted, used)
	}
	grown := residentBytes(t, g.flags)
	if grown > used+slack {
		t.Errorf("flags for %d handles are resident through %d KiB, want under %d (%d KiB granted)",
			used, grown>>10, (used+slack)>>10, granted>>10)
	}
	t.Logf("flags: %d KiB used, %d KiB granted, %d KiB resident", used>>10, granted>>10, grown>>10)

	firstHandles := h.NumHandles()
	next := New()
	rt.Reset(next)
	if reset := residentBytes(t, next.flags); reset > slack {
		t.Errorf("after Reset the flags are resident through %d KiB (%d before it), want under %d",
			reset>>10, grown>>10, slack>>10)
	}
	for i, f := range next.flags[:firstHandles] {
		if f != 0 {
			t.Fatalf("the second cell starts on flag %d = %#x left by the first", i, f)
		}
	}
}
