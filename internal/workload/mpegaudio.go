package workload

import (
	"repro/internal/heap"
	"repro/internal/vm"
)

// Mpegaudio models SPEC _222_mpegaudio, an MPEG-3 decoder: almost pure
// fixed-point computation over static filterbank and Huffman tables. The
// thesis classifies it with compress — "allocate only a few objects and
// do mostly computation" — with a static set of ~7 000 objects and a
// collectable fraction of 7–9%.
func Mpegaudio() Spec {
	return Spec{
		Name:    "mpegaudio",
		Desc:    "MPEG-3 decompressor",
		Threads: single,
		HeapBytes: func(size int) int {
			return 64 << 10
		},
		Run: runMpegaudio,
	}
}

const (
	subbands     = 32
	filterTaps   = 16
	huffGroups   = 12
	huffPerGroup = 24
)

func runMpegaudio(rt *vm.Runtime, size int) {
	h := rt.Heap
	tap := h.DefineClass(heap.Class{Name: "mpeg.Tap", Refs: 0, Data: 8})
	huff := h.DefineClass(heap.Class{Name: "mpeg.HuffEntry", Refs: 1, Data: 8})
	frameBuf := h.DefineClass(heap.Class{Name: "mpeg.FrameBuf", Refs: 0, Data: 48})
	granule := h.DefineClass(heap.Class{Name: "mpeg.Granule", Refs: 1, Data: 24})
	arr := h.DefineClass(heap.Class{Name: "mpeg.Object[]", IsArray: true})
	rng := newRNG("mpegaudio", size)

	th := rt.NewThread(2)
	main := th.Top()

	// Static synthesis filterbank: subbands x taps coefficient objects,
	// published through a static table — the immortal bulk.
	fbSlot := rt.StaticSlot("mpeg.filterbank")
	fb := main.MustNewArray(arr, subbands*filterTaps)
	main.PutStatic(fbSlot, fb)
	for i := 0; i < subbands*filterTaps; i++ {
		main.PutField(fb, i, main.MustNew(tap))
	}
	// Static Huffman tables: chained entries per group.
	huffSlot := rt.StaticSlot("mpeg.huffman")
	ht := main.MustNewArray(arr, huffGroups)
	main.PutStatic(huffSlot, ht)
	for g := 0; g < huffGroups; g++ {
		var prev heap.HandleID
		for i := 0; i < huffPerGroup; i++ {
			e := main.MustNew(huff)
			if prev != heap.Nil {
				main.PutField(e, 0, prev)
			}
			prev = e
		}
		main.PutField(ht, g, prev)
	}

	// Decode loop: frames of fixed-point subband synthesis. Frame count
	// grows sub-linearly (SPEC decodes the same stream repeatedly at
	// larger sizes, dominated by arithmetic, not allocation).
	frames := 12 + size/3
	samplesPerFrame := 4096 * size
	if samplesPerFrame > 1<<21 {
		samplesPerFrame = 1 << 21
	}
	coeffs := make([]int32, subbands)
	for i := range coeffs {
		coeffs[i] = int32(rng.Intn(1 << 14))
	}
	var acc int64
	for fr := 0; fr < frames; fr++ {
		th.CallVoid(2, func(f *vm.Frame) {
			// Transients: frame buffers and a granule record per
			// decoded frame — the only collectable storage. One buffer
			// comes from a helper call (distance-1 death, Fig 4.6).
			buf := f.MustNew(frameBuf)
			gr := f.MustNew(granule)
			f.PutField(gr, 0, buf)
			side := th.Call(1, func(g *vm.Frame) heap.HandleID {
				g.SetLocal(0, g.MustNew(frameBuf)) // scratch
				return g.MustNew(frameBuf)
			})
			f.SetLocal(0, side)
			f.SetLocal(1, gr)
			f.SetLocal(0, f.MustNew(frameBuf)) // overlap buffer

			// Polyphase synthesis: the genuine DSP inner loop
			// (fixed-point multiply-accumulate across subbands). The
			// loop runs on locals: acc and samplesPerFrame are captured
			// by reference, and accumulating into acc itself would put a
			// store and a reload on every sample's dependency chain.
			state := int32(rng.Intn(1 << 10))
			sum, n := acc, samplesPerFrame
			for s := 0; s < n; s++ {
				sb := s & (subbands - 1)
				state = state*25173 + 13849
				sum += int64(state>>4) * int64(coeffs[sb])
				coeffs[sb] = (coeffs[sb]*31 + state>>8) & 0x3fff
			}
			acc = sum
		})
	}
	_ = acc
}
