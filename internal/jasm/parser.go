package jasm

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/vm"
)

// Parse turns a token stream into a Unit. Grammar (newline-separated):
//
//	unit    := { classDecl | staticDecl | method }
//	class   := "class" name ["array"] ["refs" INT] ["data" INT]
//	static  := "static" name
//	method  := "method" name ["locals" INT] NL { stmt NL } "end"
//	stmt    := label ":" | instruction
type Parse struct {
	toks []Token
	pos  int
}

// ParseSource lexes and parses in one step.
func ParseSource(src string) (*Unit, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return (&Parse{toks: toks}).unit()
}

func (p *Parse) peek() Token { return p.toks[p.pos] }
func (p *Parse) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parse) skipNL() {
	for p.peek().Kind == TokNewline {
		p.pos++
	}
}

func (p *Parse) errf(line int, format string, args ...any) error {
	return fmt.Errorf("jasm:%d: %s", line, fmt.Sprintf(format, args...))
}

func (p *Parse) expectIdent(what string) (Token, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return t, p.errf(t.Line, "expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *Parse) expectInt(what string) (int, error) {
	t := p.next()
	if t.Kind != TokInt {
		return 0, p.errf(t.Line, "expected %s, got %s", what, t)
	}
	return t.Int, nil
}

// expectCount is expectInt for a count or size read from input, which
// must lie in [0, max] before anything is sized by it.
func (p *Parse) expectCount(what string, max int) (int, error) {
	line := p.peek().Line
	n, err := p.expectInt(what)
	if err == nil && (n < 0 || n > max) {
		err = p.errf(line, "%s %d outside [0, %d]", what, n, max)
	}
	return n, err
}

func (p *Parse) endOfStmt() error {
	t := p.next()
	if t.Kind != TokNewline && t.Kind != TokEOF {
		return p.errf(t.Line, "trailing tokens: %s", t)
	}
	return nil
}

func (p *Parse) unit() (*Unit, error) {
	u := &Unit{}
	for {
		p.skipNL()
		t := p.peek()
		if t.Kind == TokEOF {
			return u, nil
		}
		if t.Kind != TokIdent {
			return nil, p.errf(t.Line, "expected declaration, got %s", t)
		}
		switch t.Text {
		case "class":
			c, err := p.classDecl()
			if err != nil {
				return nil, err
			}
			u.Classes = append(u.Classes, c)
		case "static":
			p.next()
			name, err := p.expectIdent("static name")
			if err != nil {
				return nil, err
			}
			u.Statics = append(u.Statics, name.Text)
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
		case "method":
			m, err := p.method()
			if err != nil {
				return nil, err
			}
			u.Methods = append(u.Methods, m)
		default:
			return nil, p.errf(t.Line, "unknown declaration %q", t.Text)
		}
	}
}

func (p *Parse) classDecl() (ClassDecl, error) {
	kw := p.next() // "class"
	name, err := p.expectIdent("class name")
	if err != nil {
		return ClassDecl{}, err
	}
	c := ClassDecl{Name: name.Text, Line: kw.Line}
	for p.peek().Kind == TokIdent {
		attr := p.next()
		switch attr.Text {
		case "array":
			c.IsArray = true
		case "refs":
			if c.Refs, err = p.expectCount("ref count", heap.MaxArenaBytes); err != nil {
				return c, err
			}
		case "data":
			if c.Data, err = p.expectCount("data size", heap.MaxArenaBytes); err != nil {
				return c, err
			}
		default:
			return c, p.errf(attr.Line, "unknown class attribute %q", attr.Text)
		}
	}
	return c, p.endOfStmt()
}

func (p *Parse) method() (MethodDecl, error) {
	kw := p.next() // "method"
	name, err := p.expectIdent("method name")
	if err != nil {
		return MethodDecl{}, err
	}
	m := MethodDecl{Name: name.Text, Line: kw.Line}
	if p.peek().Kind == TokIdent && p.peek().Text == "locals" {
		p.next()
		if m.Locals, err = p.expectCount("locals count", vm.MaxLocals); err != nil {
			return m, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return m, err
	}
	for {
		p.skipNL()
		t := p.peek()
		if t.Kind == TokEOF {
			return m, p.errf(kw.Line, "method %q missing end", m.Name)
		}
		if t.Kind != TokIdent {
			return m, p.errf(t.Line, "expected instruction, got %s", t)
		}
		if t.Text == "end" {
			p.next()
			return m, p.endOfStmt()
		}
		// Label definition: ident ':'
		if p.toks[p.pos+1].Kind == TokColon {
			p.next()
			p.next()
			m.Body = append(m.Body, rawInstr{op: -1, label: t.Text, line: t.Line})
			continue
		}
		in, err := p.instruction()
		if err != nil {
			return m, err
		}
		m.Body = append(m.Body, in)
	}
}

// instruction parses one mnemonic line into a rawInstr.
func (p *Parse) instruction() (rawInstr, error) {
	t := p.next()
	in := rawInstr{line: t.Line}
	var err error
	switch t.Text {
	case "new":
		in.op = OpNew
		var c Token
		if c, err = p.expectIdent("class name"); err == nil {
			in.name = c.Text
		}
	case "newarray":
		in.op = OpNewArray
		var c Token
		if c, err = p.expectIdent("class name"); err == nil {
			in.name = c.Text
			in.num, err = p.expectCount("array length", heap.MaxArenaBytes)
		}
	case "load", "store":
		in.op = map[string]Op{"load": OpLoad, "store": OpStore}[t.Text]
		in.num, err = p.expectInt("local index")
	case "dup":
		in.op = OpDup
	case "pop":
		in.op = OpPop
	case "null":
		in.op = OpNull
	case "putfield", "getfield":
		in.op = map[string]Op{"putfield": OpPutField, "getfield": OpGetField}[t.Text]
		in.num, err = p.expectInt("field slot")
	case "putstatic", "getstatic":
		in.op = map[string]Op{"putstatic": OpPutStatic, "getstatic": OpGetStatic}[t.Text]
		var n Token
		if n, err = p.expectIdent("static name"); err == nil {
			in.name = n.Text
		}
	case "intern":
		in.op = OpIntern
		var c Token
		if c, err = p.expectIdent("class name"); err == nil {
			in.name = c.Text
			s := p.next()
			if s.Kind != TokStr {
				err = p.errf(s.Line, "expected string literal, got %s", s)
			} else {
				in.str = s.Text
			}
		}
	case "call":
		in.op = OpCall
		var n Token
		if n, err = p.expectIdent("method name"); err == nil {
			in.name = n.Text
			// The arguments become the callee's low locals.
			in.num, err = p.expectCount("argument count", vm.MaxLocals)
		}
	case "areturn":
		in.op = OpARet
	case "ret":
		in.op = OpRet
	case "goto", "ifnull", "ifnonnull":
		in.op = map[string]Op{"goto": OpGoto, "ifnull": OpIfNull, "ifnonnull": OpIfNonNull}[t.Text]
		var l Token
		if l, err = p.expectIdent("label"); err == nil {
			in.label = l.Text
		}
	default:
		return in, p.errf(t.Line, "unknown instruction %q", t.Text)
	}
	if err != nil {
		return in, err
	}
	return in, p.endOfStmt()
}
