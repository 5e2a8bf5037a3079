// Package lexer tokenizes SIL source text. Comments are Pascal-style
// braces: { ... }, matching the paper's figures.
package lexer

import (
	"fmt"

	"repro/internal/sil/token"
)

// Lexer scans one source text.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []error { return l.errs }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (l *Lexer) skipBlanksAndComments() {
	for l.off < len(l.src) {
		switch {
		case isSpace(l.peek()):
			l.advance()
		case l.peek() == '{':
			start := token.Pos{Line: l.line, Col: l.col}
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.advance() == '}' {
					closed = true
					break
				}
			}
			if !closed {
				l.errs = append(l.errs, fmt.Errorf("%s: unterminated comment", start))
			}
		default:
			return
		}
	}
}

// Next returns the next token; at end of input it returns EOF forever.
func (l *Lexer) Next() token.Token {
	l.skipBlanksAndComments()
	pos := token.Pos{Line: l.line, Col: l.col}
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := l.src[start:l.off]
		if k, ok := token.Keywords[lit]; ok {
			return token.Token{Kind: k, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: pos}
	}
	two := func(k token.Kind) token.Token {
		l.advance()
		l.advance()
		return token.Token{Kind: k, Pos: pos}
	}
	one := func(k token.Kind) token.Token {
		l.advance()
		return token.Token{Kind: k, Pos: pos}
	}
	switch c {
	case ':':
		if l.peek2() == '=' {
			return two(token.ASSIGN)
		}
		return one(token.COLON)
	case '<':
		switch l.peek2() {
		case '>':
			return two(token.NEQ)
		case '=':
			return two(token.LEQ)
		}
		return one(token.LT)
	case '>':
		if l.peek2() == '=' {
			return two(token.GEQ)
		}
		return one(token.GT)
	case '|':
		if l.peek2() == '|' {
			return two(token.PAR)
		}
	case '.':
		return one(token.DOT)
	case ',':
		return one(token.COMMA)
	case ';':
		return one(token.SEMICOLON)
	case '(':
		return one(token.LPAREN)
	case ')':
		return one(token.RPAREN)
	case '+':
		return one(token.PLUS)
	case '-':
		return one(token.MINUS)
	case '*':
		return one(token.STAR)
	case '/':
		return one(token.SLASH)
	case '=':
		return one(token.EQ)
	}
	l.advance()
	l.errs = append(l.errs, fmt.Errorf("%s: illegal character %q", pos, c))
	return token.Token{Kind: token.ILLEGAL, Lit: string(c), Pos: pos}
}
