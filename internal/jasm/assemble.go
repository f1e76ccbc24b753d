package jasm

import (
	"fmt"
	"strings"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Method is an assembled method: labels resolved to PCs, classes and
// call targets resolved to indexes.
type Method struct {
	Name   string
	Locals int
	Code   []Instr
}

// Program is an assembled unit, ready to run on a runtime.
type Program struct {
	unit    *Unit
	classes map[string]ClassDecl
	methods map[string]*Method
	order   []string
}

// Assemble resolves a parsed unit: checks class references, method
// references, label targets and stack/local sanity that is decidable
// statically.
func Assemble(u *Unit) (*Program, error) {
	p := &Program{
		unit:    u,
		classes: make(map[string]ClassDecl),
		methods: make(map[string]*Method),
	}
	for _, c := range u.Classes {
		if _, dup := p.classes[c.Name]; dup {
			return nil, fmt.Errorf("jasm:%d: duplicate class %q", c.Line, c.Name)
		}
		p.classes[c.Name] = c
	}
	declared := make(map[string]bool)
	for _, m := range u.Methods {
		if declared[m.Name] {
			return nil, fmt.Errorf("jasm:%d: duplicate method %q", m.Line, m.Name)
		}
		declared[m.Name] = true
	}
	for _, m := range u.Methods {
		asm, err := p.assembleMethod(m, declared)
		if err != nil {
			return nil, err
		}
		p.methods[m.Name] = asm
		p.order = append(p.order, m.Name)
	}
	if _, ok := p.methods["main"]; !ok {
		return nil, fmt.Errorf("jasm: no main method")
	}
	return p, nil
}

// AssembleSource is the Lex+Parse+Assemble convenience.
func AssembleSource(src string) (*Program, error) {
	u, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	return Assemble(u)
}

func (p *Program) assembleMethod(m MethodDecl, methods map[string]bool) (*Method, error) {
	// Pass 1: assign PCs to labels.
	labels := make(map[string]int)
	pc := 0
	for _, r := range m.Body {
		if r.op == -1 {
			if _, dup := labels[r.label]; dup {
				return nil, fmt.Errorf("jasm:%d: duplicate label %q", r.line, r.label)
			}
			labels[r.label] = pc
			continue
		}
		pc++
	}
	// Pass 2: resolve operands.
	out := &Method{Name: m.Name, Locals: m.Locals}
	for _, r := range m.Body {
		if r.op == -1 {
			continue
		}
		in := Instr{Op: r.op, Line: r.line}
		switch r.op {
		case OpNew, OpNewArray, OpIntern:
			c, ok := p.classes[r.name]
			if !ok {
				return nil, fmt.Errorf("jasm:%d: undefined class %q", r.line, r.name)
			}
			if r.op == OpNewArray && !c.IsArray {
				return nil, fmt.Errorf("jasm:%d: class %q is not an array class", r.line, r.name)
			}
			if r.op == OpNew && c.IsArray {
				return nil, fmt.Errorf("jasm:%d: use newarray for array class %q", r.line, r.name)
			}
			in.S = r.name
			in.B = r.num
			if r.op == OpIntern {
				// Keep both the class name and the content, separated
				// by a byte that cannot occur in either.
				in.S = r.name + "\x00" + r.str
			}
		case OpLoad, OpStore:
			if r.num < 0 || r.num >= m.Locals {
				return nil, fmt.Errorf("jasm:%d: local %d out of range (method has %d)", r.line, r.num, m.Locals)
			}
			in.A = r.num
		case OpPutField, OpGetField:
			in.A = r.num
		case OpPutStatic, OpGetStatic:
			in.S = r.name
		case OpCall:
			if !methods[r.name] {
				return nil, fmt.Errorf("jasm:%d: undefined method %q", r.line, r.name)
			}
			in.S = r.name
			in.B = r.num
		case OpGoto, OpIfNull, OpIfNonNull:
			target, ok := labels[r.label]
			if !ok {
				return nil, fmt.Errorf("jasm:%d: undefined label %q", r.line, r.label)
			}
			in.A = target
		}
		out.Code = append(out.Code, in)
	}
	return out, nil
}

// Disassemble renders the assembled program back to readable text (PCs
// and resolved operands), for the cmd/cgrun -dis flag and tests.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for _, name := range p.order {
		m := p.methods[name]
		fmt.Fprintf(&b, "method %s locals %d\n", m.Name, m.Locals)
		for pc, in := range m.Code {
			fmt.Fprintf(&b, "  %3d: %s\n", pc, in)
		}
		fmt.Fprintln(&b, "end")
	}
	return b.String()
}

// Exec is a running program bound to a runtime.
type Exec struct {
	prog    *Program
	rt      *vm.Runtime
	classes map[string]heap.ClassID
	statics map[string]int
	// Steps counts executed instructions (safety valve against
	// accidental infinite loops in user programs).
	Steps    int
	MaxSteps int
	// live is the locals of the frames invoke has pushed on the one
	// thread Run drives, held to vm.MaxLiveLocals.
	live int
}

// Bind registers the program's classes and statics on a runtime.
func (p *Program) Bind(rt *vm.Runtime) *Exec {
	e := &Exec{
		prog:     p,
		rt:       rt,
		classes:  make(map[string]heap.ClassID),
		statics:  make(map[string]int),
		MaxSteps: 100_000_000,
	}
	// Declaration order, not map order: ClassIDs, and so a recorded
	// tape's class table, must not vary from run to run.
	for _, c := range p.unit.Classes {
		e.classes[c.Name] = rt.Heap.DefineClass(heap.Class{
			Name: c.Name, Refs: c.Refs, Data: c.Data, IsArray: c.IsArray,
		})
	}
	for _, s := range p.unit.Statics {
		e.statics[s] = rt.StaticSlot(s)
	}
	return e
}

// Run executes main on a fresh thread and returns its result (heap.Nil
// for void mains).
func (e *Exec) Run() (heap.HandleID, error) {
	th := e.rt.NewThread(0)
	return e.invoke(th, e.prog.methods["main"], nil)
}

// invoke runs one method body in a fresh frame. args become the low
// locals, as the JVM calling convention does. Each call nests run on
// the Go stack, so a call that would take the thread past vm.MaxFrames
// frames or vm.MaxLiveLocals locals is an error.
func (e *Exec) invoke(th *vm.Thread, m *Method, args []heap.HandleID) (ret heap.HandleID, err error) {
	locals := m.Locals
	if len(args) > locals {
		locals = len(args)
	}
	if th.Depth() >= vm.MaxFrames {
		return heap.Nil, fmt.Errorf("jasm: call to %s at depth %d: a thread holds at most vm.MaxFrames (%d) frames",
			m.Name, th.Depth(), vm.MaxFrames)
	}
	if e.live+locals > vm.MaxLiveLocals {
		return heap.Nil, fmt.Errorf("jasm: call to %s: %d live locals above vm.MaxLiveLocals (%d)",
			m.Name, e.live+locals, vm.MaxLiveLocals)
	}
	e.live += locals
	ret = th.Call(locals, func(f *vm.Frame) heap.HandleID {
		for i, a := range args {
			if a != heap.Nil {
				f.SetLocal(i, a)
			}
		}
		r, e2 := e.run(th, f, m)
		if e2 != nil {
			err = e2
			return heap.Nil
		}
		return r
	})
	e.live -= locals
	return ret, err
}

// run is the interpreter loop: a classic fetch-dispatch over the
// assembled code with an operand stack of handles.
func (e *Exec) run(th *vm.Thread, f *vm.Frame, m *Method) (heap.HandleID, error) {
	var stack []heap.HandleID
	push := func(h heap.HandleID) { stack = append(stack, h) }
	pop := func() (heap.HandleID, error) {
		if len(stack) == 0 {
			return heap.Nil, fmt.Errorf("jasm: operand stack underflow in %s", m.Name)
		}
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return h, nil
	}
	pc := 0
	for pc < len(m.Code) {
		if e.Steps++; e.Steps > e.MaxSteps {
			return heap.Nil, fmt.Errorf("jasm: step budget exhausted (%d) in %s", e.MaxSteps, m.Name)
		}
		in := m.Code[pc]
		pc++
		switch in.Op {
		case OpNew:
			id, err := f.New(e.classes[in.S])
			if err != nil {
				return heap.Nil, fmt.Errorf("jasm:%d: %w", in.Line, err)
			}
			push(id)
		case OpNewArray:
			id, err := f.NewArray(e.classes[in.S], in.B)
			if err != nil {
				return heap.Nil, fmt.Errorf("jasm:%d: %w", in.Line, err)
			}
			push(id)
		case OpLoad:
			push(f.Local(in.A))
		case OpStore:
			v, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			f.SetLocal(in.A, v)
		case OpDup:
			if len(stack) == 0 {
				return heap.Nil, fmt.Errorf("jasm:%d: dup on empty stack", in.Line)
			}
			push(stack[len(stack)-1])
		case OpPop:
			if _, err := pop(); err != nil {
				return heap.Nil, err
			}
		case OpNull:
			push(heap.Nil)
		case OpPutField:
			v, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			o, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			if o == heap.Nil {
				return heap.Nil, fmt.Errorf("jasm:%d: putfield on null", in.Line)
			}
			f.PutField(o, in.A, v)
		case OpGetField:
			o, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			if o == heap.Nil {
				return heap.Nil, fmt.Errorf("jasm:%d: getfield on null", in.Line)
			}
			push(f.GetField(o, in.A))
		case OpPutStatic:
			v, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			f.PutStatic(e.statics[in.S], v)
		case OpGetStatic:
			push(f.GetStatic(e.statics[in.S]))
		case OpIntern:
			cls, content, _ := strings.Cut(in.S, "\x00")
			id, err := f.Intern(content, e.classes[cls])
			if err != nil {
				return heap.Nil, fmt.Errorf("jasm:%d: %w", in.Line, err)
			}
			push(id)
		case OpCall:
			args := make([]heap.HandleID, in.B)
			for i := in.B - 1; i >= 0; i-- {
				a, err := pop()
				if err != nil {
					return heap.Nil, err
				}
				args[i] = a
			}
			r, err := e.invoke(th, e.prog.methods[in.S], args)
			if err != nil {
				return heap.Nil, err
			}
			push(r)
		case OpARet:
			return pop()
		case OpRet:
			return heap.Nil, nil
		case OpGoto:
			pc = in.A
		case OpIfNull, OpIfNonNull:
			v, err := pop()
			if err != nil {
				return heap.Nil, err
			}
			if (v == heap.Nil) == (in.Op == OpIfNull) {
				pc = in.A
			}
		default:
			return heap.Nil, fmt.Errorf("jasm:%d: bad opcode %d", in.Line, in.Op)
		}
	}
	return heap.Nil, nil
}
