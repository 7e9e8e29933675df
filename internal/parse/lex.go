package parse

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokEq
	tokLt
	tokStar
	tokSemi
	numTokenKinds
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokEq:
		return "'='"
	case tokLt:
		return "'<'"
	case tokStar:
		return "'*'"
	case tokSemi:
		return "';'"
	}
	return "token"
}

// token is a span of the source: src[pos:end].
type token struct {
	kind     tokenKind
	pos, end int32
}

// lexer splits SQL text into tokens. Keywords are returned as identifiers;
// the parser matches them case-insensitively.
type lexer struct {
	src  string
	toks []token
	// count tallies the tokens of each kind, so the parser can size its
	// lists before filling them.
	count [numTokenKinds]int
}

// The dialect is ASCII: only ASCII bytes are classified, and any other
// byte starts a character the lexer rejects.
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

func lex(src string) (*lexer, error) {
	// Every token but the final EOF spans at least one byte.
	l := &lexer{src: src, toks: make([]token, 0, len(src)+1)}
	for pos := 0; pos < len(src); {
		c := src[pos]
		start := pos
		kind := tokEOF
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
			continue
		case c == '-' && pos+1 < len(src) && src[pos+1] == '-':
			// Line comment.
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
			continue
		case c == ',':
			kind, pos = tokComma, pos+1
		case c == '.':
			kind, pos = tokDot, pos+1
		case c == '=':
			kind, pos = tokEq, pos+1
		case c == '<':
			kind, pos = tokLt, pos+1
		case c == '*':
			kind, pos = tokStar, pos+1
		case c == ';':
			kind, pos = tokSemi, pos+1
		case isDigit(c):
			for pos < len(src) && isDigit(src[pos]) {
				pos++
			}
			kind = tokNumber
		case isLetter(c):
			for pos < len(src) && (isLetter(src[pos]) || isDigit(src[pos])) {
				pos++
			}
			kind = tokIdent
		default:
			// A byte past ASCII is reported as the whole character it
			// starts, at its own position.
			r, _ := utf8.DecodeRuneInString(src[pos:])
			return nil, fmt.Errorf("parse: unexpected character %q at %s", r, lineCol(src, pos))
		}
		l.toks = append(l.toks, token{kind, int32(start), int32(pos)})
		l.count[kind]++
	}
	l.toks = append(l.toks, token{tokEOF, int32(len(src)), int32(len(src))})
	return l, nil
}

// isKeyword matches an identifier token of src against a keyword,
// case-insensitively.
func isKeyword(src string, t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(src[t.pos:t.end], kw)
}
