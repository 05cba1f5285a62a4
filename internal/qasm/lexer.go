// Package qasm implements a hand-written OpenQASM 2.0 reader and writer.
//
// The reader supports the subset used by the RevLib / ScaffCC / Qiskit
// benchmark suites the paper evaluates: version header, includes (which are
// recorded but not resolved — qelib1 gates are built in), qreg/creg
// declarations, custom gate definitions (expanded as macros), standard
// gate applications with constant parameter expressions, cx, measure,
// reset, and barrier. Classical control ("if (...)") is rejected with a
// clear error since braiding schedules are static.
//
// The lexer runs on demand: the parser holds one current token and pulls
// the next from the lexer, so parsing keeps no token slice and its memory
// follows the gates it emits, not the length of the source. The writer,
// Append, renders a circuit with strconv appends into one buffer; its
// bytes are the canonical form hilight.Fingerprint hashes.
package qasm

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLBrace   // {
	tokRBrace   // }
	tokLParen   // (
	tokRParen   // )
	tokLBracket // [
	tokRBracket // ]
	tokSemi     // ;
	tokComma    // ,
	tokArrow    // ->
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokCaret
	tokEquals // ==
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "EOF"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	case tokArrow:
		return "'->'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokCaret:
		return "'^'"
	case tokEquals:
		return "'=='"
	}
	return "unknown"
}

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

// next returns the next token, skipping whitespace and // comments.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		ch := lx.src[lx.pos]
		switch {
		case ch == '\n':
			lx.line++
			lx.pos++
		case ch == ' ' || ch == '\t' || ch == '\r':
			lx.pos++
		case ch == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return lx.scan()
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil
}

func (lx *lexer) scan() (token, error) {
	start := lx.pos
	ch := lx.src[lx.pos]
	mk := func(k tokenKind, n int) (token, error) {
		lx.pos += n
		return token{kind: k, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	switch ch {
	case '{':
		return mk(tokLBrace, 1)
	case '}':
		return mk(tokRBrace, 1)
	case '(':
		return mk(tokLParen, 1)
	case ')':
		return mk(tokRParen, 1)
	case '[':
		return mk(tokLBracket, 1)
	case ']':
		return mk(tokRBracket, 1)
	case ';':
		return mk(tokSemi, 1)
	case ',':
		return mk(tokComma, 1)
	case '+':
		return mk(tokPlus, 1)
	case '*':
		return mk(tokStar, 1)
	case '/':
		return mk(tokSlash, 1)
	case '^':
		return mk(tokCaret, 1)
	case '-':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '>' {
			return mk(tokArrow, 2)
		}
		return mk(tokMinus, 1)
	case '=':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			return mk(tokEquals, 2)
		}
		return token{}, fmt.Errorf("line %d: stray '='", lx.line)
	case '"':
		lx.pos++
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' {
			if lx.src[lx.pos] == '\n' {
				return token{}, fmt.Errorf("line %d: unterminated string", lx.line)
			}
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return token{}, fmt.Errorf("line %d: unterminated string", lx.line)
		}
		lx.pos++
		return token{kind: tokString, text: lx.src[start+1 : lx.pos-1], line: lx.line}, nil
	}
	if isDigit(ch) || ch == '.' {
		for lx.pos < len(lx.src) && (isDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '.' ||
			lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E' ||
			((lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') && lx.pos > start &&
				(lx.src[lx.pos-1] == 'e' || lx.src[lx.pos-1] == 'E'))) {
			lx.pos++
		}
		return token{kind: tokNumber, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	if isIdentStart(rune(ch)) {
		for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: lx.line}, nil
	}
	return token{}, fmt.Errorf("line %d: unexpected character %q", lx.line, ch)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// rest lexes the remainder of the source and returns its first error,
// nil if there is none. It keeps no token, so a clean tail allocates
// nothing.
func (lx *lexer) rest() error {
	for {
		tk, err := lx.next()
		if err != nil || tk.kind == tokEOF {
			return err
		}
	}
}

// OpenQASM keywords that cannot be used as gate or register names.
var keywords = map[string]bool{
	"OPENQASM": true, "include": true, "qreg": true, "creg": true,
	"gate": true, "opaque": true, "measure": true, "reset": true,
	"barrier": true, "if": true,
}

func isKeyword(s string) bool { return keywords[s] || strings.EqualFold(s, "openqasm") }
