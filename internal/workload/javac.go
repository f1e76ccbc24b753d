package workload

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Javac models SPEC _213_javac, the JDK 1.1 Java compiler. Its
// demographic signature is unique in the suite: the thesis found over
// 72% of javac's objects demoted for *thread sharing* in the small run
// (Fig 4.2, A.1 — the compiler shares its AST and symbol table with a
// background worker). Per-method code-generation temporaries die with
// their frames and dominate the larger runs, where javac reaches 91%
// collectable (Fig 4.9).
func Javac() Spec {
	return Spec{
		Name:    "javac",
		Desc:    "Java Compiler",
		Threads: func(int) int { return 2 },
		HeapBytes: func(size int) int {
			return (64 + 78*size) << 10 // the shared AST is immortal and grows
		},
		Run: runJavac,
	}
}

func runJavac(rt *vm.Runtime, size int) {
	h := rt.Heap
	astNode := h.DefineClass(heap.Class{Name: "javac.ASTNode", Refs: 3, Data: 8})
	symbol := h.DefineClass(heap.Class{Name: "javac.Symbol", Refs: 1, Data: 16})
	strCls := h.DefineClass(heap.Class{Name: "javac.String", Refs: 0, Data: 16})
	temp := h.DefineClass(heap.Class{Name: "javac.CodeTemp", Refs: 1, Data: 8})
	insn := h.DefineClass(heap.Class{Name: "javac.Instr", Refs: 1, Data: 8})
	arr := h.DefineClass(heap.Class{Name: "javac.Object[]", IsArray: true})
	rng := newRNG("javac", size)

	parser := rt.NewThread(2)  // front end
	checker := rt.NewThread(2) // background semantic analysis
	mf := parser.Top()

	// Interned well-known names (§3.2: the intern table is an
	// interpreter-internal static structure).
	for i := 0; i < 60; i++ {
		if _, err := mf.Intern(fmt.Sprintf("java.lang.Builtin%d", i), strCls); err != nil {
			panic(err)
		}
	}

	// A static class-path table, as the compiler's resident state.
	cpSlot := rt.StaticSlot("javac.classpath")
	cp := mf.MustNewArray(arr, 48)
	mf.PutStatic(cpSlot, cp)
	for i := 0; i < 48; i++ {
		mf.PutField(cp, i, mf.MustNew(symbol))
	}

	units := 2 + 2*size
	methodsPerUnit := 6
	// Per-method codegen volume grows with size (larger inputs have
	// bigger method bodies), driving the popped population past the
	// shared one in medium/large runs (A.3, A.4).
	tempsPerMethod := 3 + 2*size
	if tempsPerMethod > 200 {
		tempsPerMethod = 200
	}
	// AST size per unit also grows with input size, keeping the
	// thread-shared share substantial even in the large run (A.4:
	// javac's thread bucket is still ~35% at size 100).
	astPerUnit := 40 + 8*size
	if astPerUnit > 840 {
		astPerUnit = 840
	}

	for u := 0; u < units; u++ {
		// Parse: the front end builds the unit's AST and symbol list
		// and hands the root to the checker thread.
		root := parser.Call(2, func(f *vm.Frame) heap.HandleID {
			return parseUnit(f, astNode, symbol, astPerUnit, rng)
		})
		mf.SetLocal(0, root)

		// Background semantic analysis: the checker thread walks the
		// same AST. Every touched node is detected as thread-shared
		// and conservatively demoted (§3.3).
		checker.CallVoid(1, func(f *vm.Frame) {
			f.SetLocal(0, root)
			var walk func(n heap.HandleID, depth int)
			walk = func(n heap.HandleID, depth int) {
				if n == heap.Nil || depth > 12 {
					return
				}
				walk(f.GetField(n, 0), depth+1)
				walk(f.GetField(n, 1), depth+1)
			}
			walk(root, 0)
		})

		// Code generation: per-method frames full of short-lived
		// register temps and instruction records.
		for m := 0; m < methodsPerUnit; m++ {
			parser.CallVoid(2, func(f *vm.Frame) {
				var prev heap.HandleID
				for i := 0; i < tempsPerMethod; i++ {
					var o heap.HandleID
					if i%3 == 0 {
						o = f.MustNew(insn)
					} else {
						o = f.MustNew(temp)
					}
					if prev != heap.Nil && rng.Intn(3) == 0 {
						f.PutField(o, 0, prev) // small def-use chains
					}
					prev = o
					f.SetLocal(0, o)
				}
			})
		}
		mf.SetLocal(0, heap.Nil) // drop the unit's AST
	}
}

// parseUnit builds one compilation unit's AST: a binary tree of nodes
// with an attached symbol chain, allocated in the parser's frame and
// returned to the driver (areturn promotion).
func parseUnit(f *vm.Frame, astNode, symbol heap.ClassID, astPerUnit int, rng *generator) heap.HandleID {
	nodes := astPerUnit + rng.Intn(astPerUnit/4+1)
	root := f.MustNew(astNode)
	f.SetLocal(0, root)
	for i := 1; i < nodes; i++ {
		n := f.MustNew(astNode)
		// Insert at a random position: descend left/right until a free
		// child slot appears (a real tree insertion over the handle
		// graph).
		cur := root
		for {
			slot := rng.Intn(2)
			child := f.GetField(cur, slot)
			if child == heap.Nil {
				f.PutField(cur, slot, n)
				break
			}
			cur = child
		}
		if i%5 == 0 {
			s := f.MustNew(symbol)
			f.PutField(n, 2, s) // declaration nodes carry a symbol
		}
	}
	return root
}
