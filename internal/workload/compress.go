package workload

import (
	"repro/internal/heap"
	"repro/internal/vm"
)

// Compress models SPEC _201_compress, a modified Lempel-Ziv (LZW) coder.
// The demographic signature (Fig 4.2, A.2): few objects, dominated by a
// static dictionary built once and kept for the program's duration;
// per-block coding buffers are the only collectable storage. Larger
// sizes compress more data through the *same* dictionary, so the object
// population barely grows (paper: 5 123 objects small, 6 959 large).
func Compress() Spec {
	return Spec{
		Name:    "compress",
		Desc:    "Modified Lempel-Ziv",
		Threads: single,
		HeapBytes: func(size int) int {
			return 24 << 10 // dictionary-bound; transients are small
		},
		Run: runCompress,
	}
}

// lzwDictCap bounds the code dictionary, as LZW implementations reset at
// a fixed code width (12 bits in SPEC's; scaled down here).
const lzwDictCap = 448

func runCompress(rt *vm.Runtime, size int) {
	h := rt.Heap
	entry := h.DefineClass(heap.Class{Name: "compress.Entry", Refs: 1, Data: 8})
	buffer := h.DefineClass(heap.Class{Name: "compress.Buffer", Refs: 0, Data: 56})
	window := h.DefineClass(heap.Class{Name: "compress.Window", Refs: 2, Data: 24})
	arr := h.DefineClass(heap.Class{Name: "compress.Entry[]", IsArray: true})
	rng := newRNG("compress", size)

	th := rt.NewThread(2)
	main := th.Top()
	dictSlot := rt.StaticSlot("compress.dict")

	// Build the dictionary: a static array of Entry objects, each
	// referencing its prefix entry — the immortal core of the workload.
	dict := main.MustNewArray(arr, lzwDictCap)
	main.PutStatic(dictSlot, dict)
	for i := 0; i < 256; i++ {
		e := main.MustNew(entry)
		main.PutField(dict, i, e)
	}
	nextCode := 256

	// codes is the interpreter-side (prefixCode, byte) -> code table of
	// primitive dictionary state, which carries no handles. Its key space
	// is dense and small (prefix < lzwDictCap, byte < 64), so a flat 57 KB
	// table replaces the hash map the inner loop used to probe; a code is
	// below lzwDictCap, so a uint16 holds it, and 0 means absent (codes
	// 0-255 are never stored: only fresh codes >= 256 enter the table).
	codes := make([]uint16, lzwDictCap<<6)

	// Compress blocks. Block count grows slowly with size (the SPEC
	// input is recompressed repeatedly); block length carries the real
	// computational scaling.
	blocks := 8 + size/2
	blockLen := 2048 * size
	if blockLen > 1<<20 {
		blockLen = 1 << 20
	}
	var checksum uint32
	for b := 0; b < blocks; b++ {
		th.CallVoid(2, func(f *vm.Frame) {
			// Per-block transients: I/O buffers and a sliding window
			// record, all dead when this frame pops. The input buffer
			// comes from a helper call, so it dies one frame from its
			// birth (the distance-1 population of Fig 4.6).
			out := f.MustNew(buffer)
			win := f.MustNew(window)
			f.PutField(win, 0, out)
			in := th.Call(1, func(g *vm.Frame) heap.HandleID {
				b := g.MustNew(buffer)
				g.SetLocal(0, g.MustNew(buffer)) // scratch, dies at depth 0
				return b
			})
			f.PutField(win, 1, in)
			f.SetLocal(0, out)
			f.SetLocal(1, win)

			// The LZW inner loop over synthetic data.
			prev := int(rng.Intn(256))
			for i := 0; i < blockLen; i++ {
				c := byte(rng.Intn(256) & 0x3f) // skewed alphabet: real matches
				key := uint32(prev)<<6 | uint32(c)
				if code := codes[key]; code != 0 {
					prev = int(code)
					continue
				}
				checksum = checksum*31 + key
				if nextCode < lzwDictCap {
					// A genuinely new phrase: one dictionary Entry,
					// chained to its prefix and published in the
					// static table.
					e := f.MustNew(entry)
					prefix := f.GetField(dict, prev%256)
					if prefix != heap.Nil {
						f.PutField(e, 0, prefix)
					}
					f.PutField(dict, nextCode, e)
					codes[key] = uint16(nextCode)
					nextCode++
				}
				prev = int(c)
			}
		})
	}
	_ = checksum
}
