package jasm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/vm"
)

// FuzzAssemble feeds AssembleSource arbitrary text. It must never
// panic, and a program it accepts must disassemble and hold every count
// within its bound: locals, refs, data, array lengths, argument counts,
// local indexes and branch targets. The programs are not run: jasm has
// goto, so a fuzzed one can loop until its step budget. The seeds are
// examples/worked_example.jasm, the examples/interp program and the
// hostile counts of TestCountsAreBounded.
func FuzzAssemble(f *testing.F) {
	worked, err := os.ReadFile("../../examples/worked_example.jasm")
	if err != nil {
		f.Fatal(err)
	}
	interp, err := os.ReadFile("../../examples/interp/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, program, ok := strings.Cut(string(interp), "const program = `")
	program, _, ok2 := strings.Cut(program, "`")
	if !ok || !ok2 {
		f.Fatal("examples/interp/main.go holds no const program")
	}
	f.Add(string(worked))
	f.Add(program)
	for src := range hostileCounts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := AssembleSource(src)
		if err != nil {
			return
		}
		if err := p.checkBounds(); err != nil {
			t.Fatalf("%v in an accepted program:\n%s", err, src)
		}
		dis := p.Disassemble()
		for _, name := range p.order {
			if !strings.Contains(dis, "method "+name+" locals ") {
				t.Fatalf("disassembly lacks method %q:\n%s", name, dis)
			}
		}
	})
}

// checkBounds reports the first count of p outside its bound.
func (p *Program) checkBounds() error {
	for _, c := range p.unit.Classes {
		if c.Refs < 0 || c.Refs > heap.MaxArenaBytes || c.Data < 0 || c.Data > heap.MaxArenaBytes {
			return fmt.Errorf("class %s: refs %d, data %d", c.Name, c.Refs, c.Data)
		}
	}
	for _, name := range p.order {
		m := p.methods[name]
		if m.Locals < 0 || m.Locals > vm.MaxLocals {
			return fmt.Errorf("method %s: locals %d", m.Name, m.Locals)
		}
		for pc, in := range m.Code {
			var bad bool
			switch in.Op {
			case OpNewArray:
				bad = in.B < 0 || in.B > heap.MaxArenaBytes
			case OpCall:
				bad = in.B < 0 || in.B > vm.MaxLocals
			case OpLoad, OpStore:
				bad = in.A < 0 || in.A >= m.Locals
			case OpGoto, OpIfNull, OpIfNonNull:
				bad = in.A < 0 || in.A > len(m.Code)
			}
			if bad {
				return fmt.Errorf("method %s, pc %d: %s", m.Name, pc, in)
			}
		}
	}
	return nil
}
