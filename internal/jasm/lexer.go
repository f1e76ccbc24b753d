// Package jasm implements a small textual assembly language for the
// runtime in internal/vm, covering exactly the instruction vocabulary
// the contaminated collector instruments (§3.1.3): object creation,
// putfield/getfield, putstatic/getstatic, areturn, method call/return,
// interning and thread-share triggers. Programs can therefore be written
// as .jasm files and executed under any collector — the cmd/cgrun tool
// and the examples/interp example do exactly that.
//
// The pipeline is conventional: Lex -> Parse -> Assemble (resolve names
// and labels) -> Run (a stack-machine interpreter driving vm.Thread).
package jasm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokIdent   TokKind = iota // identifiers, keywords, class names
	TokInt                    // integer literals
	TokStr                    // quoted string literals
	TokColon                  // ':' (label definitions)
	TokNewline                // statement separator
	TokEOF
)

// Token is one lexical token with its source line for diagnostics.
type Token struct {
	Kind TokKind
	Text string
	Int  int
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokIdent:
		return t.Text
	case TokInt:
		return fmt.Sprint(t.Int)
	case TokStr:
		return fmt.Sprintf("%q", t.Text)
	case TokColon:
		return ":"
	case TokNewline:
		return "\\n"
	default:
		return "EOF"
	}
}

// Lex tokenises source. Comments run from ';' to end of line. Newlines
// are significant (one instruction per line).
func Lex(src string) ([]Token, error) {
	var toks []Token
	line := 1
	i := 0
	emitNL := func() {
		// Collapse consecutive newlines.
		if n := len(toks); n > 0 && toks[n-1].Kind != TokNewline {
			toks = append(toks, Token{Kind: TokNewline, Line: line})
		}
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emitNL()
			line++
			i++
		case c == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ':':
			toks = append(toks, Token{Kind: TokColon, Line: line})
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\n' {
					return nil, fmt.Errorf("jasm:%d: unterminated string", line)
				}
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[j])
					}
				} else {
					sb.WriteByte(src[j])
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("jasm:%d: unterminated string", line)
			}
			toks = append(toks, Token{Kind: TokStr, Text: sb.String(), Line: line})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			n, err := strconv.Atoi(src[i:j])
			if err != nil {
				return nil, fmt.Errorf("jasm:%d: integer literal %s out of range", line, src[i:j])
			}
			toks = append(toks, Token{Kind: TokInt, Int: n, Line: line})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i:j], Line: line})
			i = j
		default:
			return nil, fmt.Errorf("jasm:%d: unexpected character %q", line, c)
		}
	}
	emitNL()
	toks = append(toks, Token{Kind: TokEOF, Line: line})
	return toks, nil
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_' || c == '.' || c == '$'
}

func isIdentPart(c rune) bool {
	return isIdentStart(c) || unicode.IsDigit(c) || c == '[' || c == ']'
}
