package jasm

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/vm"
)

func runUnderCG(t *testing.T, src string) (*core.CG, *vm.Runtime, heap.HandleID) {
	t.Helper()
	prog, err := AssembleSource(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cg := core.New(core.Config{StaticOpt: true, Checked: true})
	rt := vm.New(heap.New(1<<20), cg)
	ret, err := prog.Bind(rt).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cg, rt, ret
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("new Node ; comment\nstore 3\nintern Str \"a b\\n\"")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{TokIdent, TokIdent, TokNewline, TokIdent, TokInt, TokNewline,
		TokIdent, TokIdent, TokStr, TokNewline, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("token stream %v", toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: got %v, want %v (%v)", i, kinds[i], want[i], toks)
		}
	}
	if toks[8].Text != "a b\n" {
		t.Fatalf("string literal = %q", toks[8].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "ok\n\"also\nbad\"", "what?"} {
		if _, err := Lex(src); err == nil {
			t.Fatalf("Lex(%q) succeeded", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing end":     "method main\nnew X",
		"unknown instr":   "method main\nfrobnicate\nend",
		"unknown decl":    "wibble",
		"class attr":      "class C wobble",
		"label dup":       "method main\nL:\nL:\nend",
		"trailing tokens": "method main locals 1\nload 0 0\nend",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseSource(src); err == nil {
				// label dup is caught at assembly, not parse
				if _, err2 := AssembleSource(src); err2 == nil {
					t.Fatalf("accepted bad source %q", src)
				}
			}
		})
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"no main":          "class C\nmethod helper\nend",
		"undefined class":  "method main\nnew Missing\npop\nend",
		"undefined method": "method main\ncall nope 0\nend",
		"undefined label":  "method main\ngoto nowhere\nend",
		"bad local":        "method main locals 1\nload 3\nend",
		"new on array":     "class A array\nmethod main\nnew A\npop\nend",
		"newarray plain":   "class C\nmethod main\nnewarray C 3\npop\nend",
		"dup class":        "class C\nclass C\nmethod main\nend",
		"dup method":       "method main\nend\nmethod main\nend",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := AssembleSource(src); err == nil {
				t.Fatalf("assembled bad source %q", src)
			}
		})
	}
}

// TestWorkedExampleInJasm encodes the Figure 2.1/2.2 program in assembly
// and checks the final CG classification: E is static and, because
// contamination cannot be undone, A-D are static too.
func TestWorkedExampleInJasm(t *testing.T) {
	src := `
class Object refs 2 data 8
static E

; frame 1 holds C, frame 2 B, frame 3 A, frame 4 D; frame 5 executes
; the mutation sequence of Figure 2.2.
method main locals 1
  new Object        ; C
  store 0
  load 0
  call f2 1
  ret
end

method f2 locals 2   ; local 0 = C
  new Object        ; B
  store 1
  load 0
  load 1
  call f3 2
  ret
end

method f3 locals 3   ; locals: C B
  new Object        ; A
  store 2
  load 0
  load 1
  load 2
  call f4 3
  ret
end

method f4 locals 4   ; locals: C B A
  new Object        ; D
  store 3
  load 0
  load 1
  load 2
  load 3
  call f5 4
  ret
end

method f5 locals 5   ; locals: C B A D
  new Object        ; E
  store 4
  load 4
  putstatic E
  load 1            ; (1) B.f = A
  load 2
  putfield 0
  load 0            ; (2) C.f = B
  load 1
  putfield 0
  load 3            ; (3) D.f = C
  load 0
  putfield 0
  load 4            ; (4) E.f = D
  load 3
  putfield 0
  load 4            ; (5) E.f = null
  null
  putfield 0
  ret
end
`
	cg, _, _ := runUnderCG(t, src)
	b := cg.Snapshot()
	if b.Created != 5 {
		t.Fatalf("created %d objects, want 5", b.Created)
	}
	// All five end up static: contamination cannot be undone (§2.1).
	if b.Static != 5 || b.Popped != 0 {
		t.Fatalf("breakdown %+v, want all static", b)
	}
}

// TestFrameLocalGarbageIsCollected: per-call temporaries die when their
// frame pops, visible through CG's popped counter.
func TestFrameLocalGarbageIsCollected(t *testing.T) {
	src := `
class Node refs 1 data 8
static keep

method main locals 1
  call work 0
  putstatic keep    ; the returned node survives the whole program
  ret
end

method work locals 2
  new Node          ; temp, dies when this frame pops
  store 0
  new Node          ; returned, promoted to main's frame
  store 1
  load 1
  areturn
end
`
	cg, rt, _ := runUnderCG(t, src)
	st := cg.Stats()
	if st.Created != 2 || st.Popped != 1 {
		t.Fatalf("stats %+v, want 1 of 2 popped", st)
	}
	kept := rt.Statics()[rt.StaticSlot("keep")]
	if kept == heap.Nil || !rt.Heap.Live(kept) {
		t.Fatal("areturn value lost")
	}
}

// TestControlFlow: a loop that builds a linked list of n nodes using
// labels and conditional branches.
func TestControlFlow(t *testing.T) {
	src := `
class Node refs 1 data 8
static head

method main locals 1
  call mkchain 0    ; a 3-node counter chain
  store 0
  load 0
  call build 1      ; one list node per chain link
  putstatic head
  ret
end

method mkchain locals 2
  new Node
  store 0
  new Node
  dup
  load 0
  putfield 0
  store 1
  new Node
  dup
  load 1
  putfield 0
  areturn
end

method build locals 3  ; local 0 = counter chain
  null
  store 1              ; list = null
  load 0
  store 2              ; cur = chain
loop:
  load 2
  ifnull done
  new Node
  dup
  load 1
  putfield 0           ; node.next = list
  store 1              ; list = node
  load 2
  getfield 0
  store 2              ; cur = cur.next
  goto loop
done:
  load 1
  areturn
end
`
	_, rt, _ := runUnderCG(t, src)
	h := rt.Statics()[rt.StaticSlot("head")]
	if h == heap.Nil {
		t.Fatal("head not set")
	}
	n := 0
	for cur := h; cur != heap.Nil && n <= 10; cur = rt.Heap.GetRef(cur, 0) {
		n++
	}
	if n != 3 {
		t.Fatalf("list length %d, want 3 (one per chain link)", n)
	}
}

// TestInternCanonical: intern returns the same object for equal content
// and pins it static.
func TestInternCanonical(t *testing.T) {
	src := `
class Str data 16
static a
static b

method main
  intern Str "hello"
  putstatic a
  intern Str "hello"
  putstatic b
  ret
end
`
	cg, rt, _ := runUnderCG(t, src)
	sa := rt.Statics()[rt.StaticSlot("a")]
	sb := rt.Statics()[rt.StaticSlot("b")]
	if sa == heap.Nil || sa != sb {
		t.Fatalf("intern not canonical: %d vs %d", sa, sb)
	}
	if cg.DependentFrame(sa).ID != 0 {
		t.Fatal("interned object not static")
	}
}

// TestStepBudget: runaway loops are caught, not spun forever.
func TestStepBudget(t *testing.T) {
	src := `
method main
  loop:
  goto loop
end
`
	prog, err := AssembleSource(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := vm.New(heap.New(1<<16), core.New(core.DefaultConfig()))
	ex := prog.Bind(rt)
	ex.MaxSteps = 1000
	if _, err := ex.Run(); err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("expected step-budget error, got %v", err)
	}
}

// TestRuntimeErrors: null dereference and stack underflow are reported
// with line numbers, not panics.
func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		"null putfield": "class C refs 1\nmethod main\nnull\nnull\nputfield 0\nend",
		"underflow":     "method main\npop\nend",
		"null getfield": "class C refs 1\nmethod main\nnull\ngetfield 0\npop\nend",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			prog, err := AssembleSource(src)
			if err != nil {
				t.Fatal(err)
			}
			rt := vm.New(heap.New(1<<16), core.New(core.DefaultConfig()))
			if _, err := prog.Bind(rt).Run(); err == nil {
				t.Fatal("expected a runtime error")
			}
		})
	}
}

// TestDisassembleRoundTrip: disassembly of an assembled program parses
// mnemonics consistently (spot checks).
func TestDisassembleRoundTrip(t *testing.T) {
	src := `
class Node refs 2 data 8
class Node[] array
static s

method main locals 2
  newarray Node[] 4
  store 0
  new Node
  store 1
  load 0
  load 1
  putfield 2
  load 1
  putstatic s
  call aux 0
  pop
  ret
end

method aux
  intern Node "x"
  areturn
end
`
	prog, err := AssembleSource(src)
	if err != nil {
		t.Fatal(err)
	}
	dis := prog.Disassemble()
	for _, want := range []string{
		"method main locals 2", "newarray Node[] 4", "putfield 2",
		"putstatic s", "call aux 0", `intern Node "x"`, "areturn",
	} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// TestArgumentsBecomeLocals: the calling convention loads arguments into
// the callee's low locals.
func TestArgumentsBecomeLocals(t *testing.T) {
	src := `
class Node refs 1 data 8
static out

method main locals 2
  new Node
  store 0
  new Node
  store 1
  load 0
  load 1
  call pair 2
  putstatic out
  ret
end

method pair locals 2   ; a b -> a.f = b; return a
  load 0
  load 1
  putfield 0
  load 0
  areturn
end
`
	_, rt, _ := runUnderCG(t, src)
	out := rt.Statics()[rt.StaticSlot("out")]
	if out == heap.Nil {
		t.Fatal("no result")
	}
	if rt.Heap.GetRef(out, 0) == heap.Nil {
		t.Fatal("callee did not see both arguments")
	}
}

// TestBindDefinesClassesInDeclarationOrder: ClassIDs follow the source,
// so every run of a program — and every tape recorded from it — has the
// same class table.
func TestBindDefinesClassesInDeclarationOrder(t *testing.T) {
	src := `
class Zeta refs 1 data 8
class Alpha data 16
class Mid[] array
class Beta refs 2

method main
  ret
end
`
	prog, err := AssembleSource(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Zeta", "Alpha", "Mid[]", "Beta"}
	for run := 0; run < 10; run++ {
		rt := vm.New(heap.New(1<<16), vm.None())
		prog.Bind(rt)
		for i, name := range want {
			if got := rt.Heap.ClassDef(heap.ClassID(i)).Name; got != name {
				t.Fatalf("run %d: class %d is %q, want %q (declaration order)", run, i, got, name)
			}
		}
	}
}
