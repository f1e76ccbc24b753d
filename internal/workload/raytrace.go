package workload

import (
	"math"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Raytrace models SPEC _205_raytrace: a recursive ray tracer whose
// per-pixel temporaries (rays, intersection records, colour vectors) are
// almost all frame-local — the thesis's best case at 98% collectable.
// Intersection records are allocated at the leaves of a recursive
// spatial-partition walk and travel up the whole frame chain via
// areturn, which is why raytrace dominates the ">5 frames" bucket of
// Fig 4.6; the records that merge into the winning ray's block form the
// 6-10-object equilive blocks of Fig 4.5.
func Raytrace() Spec {
	return Spec{
		Name:      "raytrace",
		Desc:      "Ray Tracer",
		Threads:   single,
		HeapBytes: raytraceHeap,
		Run: func(rt *vm.Runtime, size int) {
			runRaytrace(rt, size, 1)
		},
	}
}

// MTRT models SPEC _227_mtrt, the multithreaded variant of raytrace. As
// in SPEC, "multiple threads are required for computation only for the
// larger problem sizes" (thesis footnote 1); the two renderers share a
// small band of row buffers, producing the ~1% thread-shared population
// of Fig A.1.
func MTRT() Spec {
	return Spec{
		Name:      "mtrt",
		Desc:      "Ray Tracer, threaded",
		Threads:   mtrtThreads,
		HeapBytes: raytraceHeap,
		Run: func(rt *vm.Runtime, size int) {
			runRaytrace(rt, size, mtrtThreads(size))
		},
	}
}

// mtrtThreads is mtrt's renderer count: one below size 10, two from it.
func mtrtThreads(size int) int {
	if size >= 10 {
		return 2
	}
	return 1
}

func raytraceHeap(size int) int {
	// The live set is tiny (scene + one row's temporaries); garbage is
	// torrential. A tight budget forces the MSA-only baseline to cycle.
	return 32 << 10
}

// nspheres is a power of two so the bisection walk is balanced: 64
// spheres, leaf width 4 -> four internal levels plus the leaf frame.
const nspheres = 64

// sphere is interpreter-side scene geometry (primitive data: no heap
// references, so no handles — like SPEC's float fields).
type sphere struct {
	cx, cy, cz, r float64
	reflect       bool
}

type tracerWorld struct {
	spheres []sphere
	ray     heap.ClassID
	hit     heap.ClassID
	color   heap.ClassID
	arr     heap.ClassID
}

func runRaytrace(rt *vm.Runtime, size, threads int) {
	h := rt.Heap
	w := &tracerWorld{
		ray:   h.DefineClass(heap.Class{Name: "rt.Ray", Refs: 1, Data: 48}),
		hit:   h.DefineClass(heap.Class{Name: "rt.Hit", Refs: 1, Data: 32}),
		color: h.DefineClass(heap.Class{Name: "rt.Color", Refs: 1, Data: 24}),
		arr:   h.DefineClass(heap.Class{Name: "rt.Object[]", IsArray: true}),
	}
	sceneCls := h.DefineClass(heap.Class{Name: "rt.Sphere", Refs: 0, Data: 40})
	rng := newRNG("raytrace", size)

	main := rt.NewThread(1)
	mf := main.Top()

	// Static scene: sphere objects published via a static array. They
	// are data-only — pixel temporaries never hold references to them,
	// which is what keeps raytrace ~98% collectable in both optimizer
	// configurations (Fig 4.1).
	sceneSlot := rt.StaticSlot("rt.scene")
	sceneArr := mf.MustNewArray(w.arr, nspheres)
	mf.PutStatic(sceneSlot, sceneArr)
	for i := 0; i < nspheres; i++ {
		mf.PutField(sceneArr, i, mf.MustNew(sceneCls))
		w.spheres = append(w.spheres, sphere{
			cx: rng.Float64()*8 - 4, cy: rng.Float64()*8 - 4, cz: 4 + rng.Float64()*8,
			r: 0.3 + rng.Float64(), reflect: i%3 == 0,
		})
	}

	width := 12
	height := 16 * size
	if threads == 1 {
		renderBand(main, w, width, 0, height, heap.Nil)
		return
	}

	// Multithreaded: two renderers split the image into bands and share
	// per-band row buffers (allocated by thread 1, touched by thread 2)
	// — the Fig 3.1 sharing pattern.
	second := rt.NewThread(1)
	shared := mf.MustNewArray(w.arr, 8)
	mf.SetLocal(0, shared)
	for i := 0; i < 8; i++ {
		mf.PutField(shared, i, mf.MustNew(w.color))
	}
	second.Top().SetLocal(0, shared) // thread 2 adopts the row buffers
	half := height / 2
	renderBand(main, w, width, 0, half, shared)
	renderBand(second, w, width, half, height, shared)
}

// renderBand traces rows [y0, y1).
func renderBand(th *vm.Thread, w *tracerWorld, width, y0, y1 int, shared heap.HandleID) {
	for y := y0; y < y1; y++ {
		th.CallVoid(2, func(row *vm.Frame) {
			for x := 0; x < width; x++ {
				px := tracePixel(th, w, x, y)
				row.SetLocal(0, px) // accumulate, then overwrite: garbage
				if shared != heap.Nil && x == 0 {
					// Both threads read the shared row buffers.
					row.GetField(shared, y%8)
				}
			}
		})
	}
}

// tracePixel casts the primary ray for (x, y); the returned colour (and
// the intersection block contaminated into it) depends on the row frame
// after the areturn.
func tracePixel(th *vm.Thread, w *tracerWorld, x, y int) heap.HandleID {
	return th.Call(2, func(f *vm.Frame) heap.HandleID {
		dx := float64(x)/6 - 1
		dy := float64(y%16)/8 - 1
		return shade(th, w, f, 0, 0, 0, 0, dx, dy, 1)
	})
}

// shade allocates the Ray, runs the recursive intersection walk, links
// the winning intersection block into the ray and the resulting colour
// (so the whole block survives exactly until the row frame pops), and
// recurses on reflective hits up to depth 6.
func shade(th *vm.Thread, w *tracerWorld, f *vm.Frame, depth int, ox, oy, oz, dx, dy, dz float64) heap.HandleID {
	r := f.MustNew(w.ray)
	f.SetLocal(0, r)

	hit, best, bestIdx := intersect(th, w, f, 0, nspheres, ox, oy, oz, dx, dy, dz)
	if hit != heap.Nil {
		f.PutField(r, 0, hit) // ray joins the intersection block
	}
	var c heap.HandleID
	if bestIdx >= 0 {
		s := w.spheres[bestIdx]
		if s.reflect && depth < 6 {
			// Reflect: recurse in a fresh frame; the child colour is
			// promoted into this frame and then returned again.
			c = th.Call(2, func(g *vm.Frame) heap.HandleID {
				hx := ox + best*dx
				hy := oy + best*dy
				hz := oz + best*dz
				nx, ny, nz := (hx-s.cx)/s.r, (hy-s.cy)/s.r, (hz-s.cz)/s.r
				dot := dx*nx + dy*ny + dz*nz
				return shade(th, w, g, depth+1, hx, hy, hz, dx-2*dot*nx, dy-2*dot*ny, dz-2*dot*nz)
			})
		} else {
			c = f.MustNew(w.color)
		}
	} else {
		c = f.MustNew(w.color) // background
	}
	if hit != heap.Nil {
		f.PutField(c, 0, hit) // the colour carries its intersection data
	}
	return c
}

// mergeAbove: internal bisection levels wider than this merge the losing
// child's intersection block into the winner's (SPEC stores per-node
// IntersectPt data into the ray); narrower levels let losers die with
// their frame. The split keeps collected blocks in the 6-10 bucket of
// Fig 4.5 while sending the merged records to the ">5 frames" bucket of
// Fig 4.6.
const mergeAbove = 8

// intersect finds the closest hit among spheres [lo, hi) by recursive
// bisection. Every leaf allocates an intersection record and returns it
// up the frame chain regardless of outcome.
func intersect(th *vm.Thread, w *tracerWorld, f *vm.Frame, lo, hi int, ox, oy, oz, dx, dy, dz float64) (heap.HandleID, float64, int) {
	if hi-lo <= 4 {
		best, bestIdx := math.Inf(1), -1
		for i := lo; i < hi; i++ {
			s := w.spheres[i]
			// Ray-sphere intersection: solve |o + t d - c|^2 = r^2.
			lx, ly, lz := s.cx-ox, s.cy-oy, s.cz-oz
			dd := dx*dx + dy*dy + dz*dz
			b := lx*dx + ly*dy + lz*dz
			c := lx*lx + ly*ly + lz*lz - s.r*s.r
			disc := b*b - dd*c
			if disc < 0 {
				continue
			}
			t := (b - math.Sqrt(disc)) / dd
			if t > 1e-4 && t < best {
				best, bestIdx = t, i
			}
		}
		h := th.Call(1, func(g *vm.Frame) heap.HandleID {
			return g.MustNew(w.hit) // born 6+ frames below the row
		})
		return h, best, bestIdx
	}
	mid := (lo + hi) / 2
	var lt, rtt float64
	var li, ri int
	var lh, rh heap.HandleID
	lh = th.Call(1, func(g *vm.Frame) heap.HandleID {
		h, t, i := intersect(th, w, g, lo, mid, ox, oy, oz, dx, dy, dz)
		lt, li = t, i
		return h
	})
	rh = th.Call(1, func(g *vm.Frame) heap.HandleID {
		h, t, i := intersect(th, w, g, mid, hi, ox, oy, oz, dx, dy, dz)
		rtt, ri = t, i
		return h
	})
	win, lose := lh, rh
	wt, wi := lt, li
	if rtt < lt {
		win, lose = rh, lh
		wt, wi = rtt, ri
	}
	if hi-lo > mergeAbove && win != heap.Nil && lose != heap.Nil {
		f.PutField(win, 0, lose) // the winner's block absorbs the loser
	}
	return win, wt, wi
}
