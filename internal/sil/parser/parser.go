// Package parser builds SIL ASTs by recursive descent over the grammar of
// Figure 1, with two practical extensions: chained field selectors (which
// normalization later rewrites into basic statements, per the paper's
// remark in §3.2) and the "||" parallel statement of Figure 8.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/sil/ast"
	"repro/internal/sil/lexer"
	"repro/internal/sil/token"
)

// maxNesting caps how deeply statements (begin, if, while, ||) and
// expressions (parentheses, call arguments, not, unary minus) may nest.
// The parser and every later pass recurse once per level, so without a
// cap a source of a few megabytes of "(" exhausts the goroutine stack —
// a fatal error no recover can catch. Exceeding the cap is an ordinary
// parse error.
const maxNesting = 1000

// Parse parses a complete SIL program.
func Parse(src string) (*ast.Program, error) {
	p := newParser(src)
	prog, err := p.parseProgram()
	if lerr := p.lexErr(); lerr != nil {
		return nil, lerr
	}
	return prog, err
}

// ParseStmts parses a bare statement list (test and REPL convenience):
// the input is wrapped as the body of an implicit block.
func ParseStmts(src string) ([]ast.Stmt, error) {
	p := newParser(src)
	var err error
	var stmts []ast.Stmt
	func() {
		defer p.catch(&err)
		for p.tok().Kind != token.EOF {
			stmts = append(stmts, p.parseStmt())
			if p.tok().Kind == token.SEMICOLON {
				p.next()
			}
		}
	}()
	if lerr := p.lexErr(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return stmts, nil
}

// parser pulls tokens from the lexer one at a time (the grammar needs a
// single token of lookahead), so no token buffer grows with the input.
type parser struct {
	lex   *lexer.Lexer
	cur   token.Token
	depth int // current nesting level, bounded by maxNesting
}

func newParser(src string) *parser {
	l := lexer.New(src)
	return &parser{lex: l, cur: l.Next()}
}

// lexErr scans whatever input the parse left unread and returns the first
// lexical error in the whole source: a lexical error takes precedence
// over any parse error.
func (p *parser) lexErr() error {
	for p.cur.Kind != token.EOF {
		p.cur = p.lex.Next()
	}
	if errs := p.lex.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// nest enters one nesting level at pos; the caller leaves it with
// p.depth-- once the nested construct is parsed.
func (p *parser) nest(pos token.Pos) {
	p.depth++
	if p.depth > maxNesting {
		p.errorf(pos, "nesting deeper than %d levels", maxNesting)
	}
}

type parseError struct{ err error }

func (p *parser) catch(err *error) {
	if r := recover(); r != nil {
		pe, ok := r.(parseError)
		if !ok {
			panic(r)
		}
		*err = pe.err
	}
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	panic(parseError{fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

func (p *parser) tok() token.Token { return p.cur }

func (p *parser) next() token.Token {
	t := p.cur
	if t.Kind != token.EOF {
		p.cur = p.lex.Next()
	}
	return t
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.tok()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
	}
	return p.next()
}

func (p *parser) accept(k token.Kind) bool {
	if p.tok().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectName() token.Token {
	t := p.tok()
	if !t.IsNameLike() {
		p.errorf(t.Pos, "expected identifier, found %s", t)
	}
	return p.next()
}

func (p *parser) parseProgram() (prog *ast.Program, err error) {
	defer p.catch(&err)
	p.expect(token.PROGRAM)
	name := p.expectName()
	p.accept(token.SEMICOLON)
	prog = &ast.Program{Name: name.Name(), NamePos: name.Pos}
	for p.tok().Kind != token.EOF {
		switch p.tok().Kind {
		case token.PROCEDURE:
			prog.Decls = append(prog.Decls, p.parseProcOrFunc(false))
		case token.FUNCTION:
			prog.Decls = append(prog.Decls, p.parseProcOrFunc(true))
		default:
			p.errorf(p.tok().Pos, "expected procedure or function, found %s", p.tok())
		}
	}
	return prog, nil
}

func (p *parser) parseType() ast.Type {
	switch t := p.next(); t.Kind {
	case token.INTKW:
		return ast.IntT
	case token.HANDLEKW:
		return ast.HandleT
	default:
		p.errorf(t.Pos, "expected type (int or handle), found %s", t)
		return ast.VoidT
	}
}

// parseVarGroup parses "a, b, c: type" and returns one VarDecl per name.
func (p *parser) parseVarGroup() []*ast.VarDecl {
	var names []token.Token
	names = append(names, p.expectName())
	for p.accept(token.COMMA) {
		names = append(names, p.expectName())
	}
	p.expect(token.COLON)
	typ := p.parseType()
	out := make([]*ast.VarDecl, len(names))
	for i, n := range names {
		out[i] = &ast.VarDecl{Name: n.Name(), Type: typ, NamePos: n.Pos}
	}
	return out
}

func (p *parser) parseProcOrFunc(isFunc bool) *ast.ProcDecl {
	p.next() // procedure | function
	name := p.expectName()
	d := &ast.ProcDecl{Name: name.Name(), NamePos: name.Pos}
	p.expect(token.LPAREN)
	if p.tok().Kind != token.RPAREN {
		d.Params = append(d.Params, p.parseVarGroup()...)
		for p.accept(token.SEMICOLON) {
			d.Params = append(d.Params, p.parseVarGroup()...)
		}
	}
	p.expect(token.RPAREN)
	if isFunc {
		p.accept(token.COLON) // the colon is optional, per Figure 1's layout
		d.Result = p.parseType()
	}
	p.accept(token.SEMICOLON)
	// Locals: var groups until "begin".
	for p.tok().Kind != token.BEGIN && p.tok().Kind != token.EOF {
		d.Locals = append(d.Locals, p.parseVarGroup()...)
		if !p.accept(token.SEMICOLON) {
			break
		}
	}
	d.Body = p.parseBlock()
	if isFunc {
		p.expect(token.RETURN)
		p.expect(token.LPAREN)
		rv := p.expectName()
		d.ReturnVar = rv.Name()
		p.expect(token.RPAREN)
	}
	p.accept(token.SEMICOLON)
	return d
}

func (p *parser) parseBlock() *ast.Block {
	begin := p.expect(token.BEGIN)
	b := &ast.Block{BeginPos: begin.Pos}
	for p.tok().Kind != token.END && p.tok().Kind != token.EOF {
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.tok().Kind != token.END {
			p.expect(token.SEMICOLON)
			// Tolerate a trailing semicolon before "end".
			if p.tok().Kind == token.END {
				break
			}
		}
	}
	p.expect(token.END)
	return b
}

// parseStmt parses one statement, including "s1 || s2 || …".
func (p *parser) parseStmt() ast.Stmt {
	first := p.parseBaseStmt()
	if p.tok().Kind != token.PAR {
		return first
	}
	par := &ast.Par{Branches: []ast.Stmt{first}}
	for p.accept(token.PAR) {
		par.Branches = append(par.Branches, p.parseBaseStmt())
	}
	return par
}

func (p *parser) parseBaseStmt() ast.Stmt {
	t := p.tok()
	p.nest(t.Pos)
	defer func() { p.depth-- }()
	switch t.Kind {
	case token.BEGIN:
		return p.parseBlock()
	case token.IF:
		p.next()
		cond := p.parseExpr()
		p.expect(token.THEN)
		then := p.parseStmt()
		var els ast.Stmt
		if p.accept(token.ELSE) {
			els = p.parseStmt()
		}
		return &ast.If{Cond: cond, Then: then, Else: els, IfPos: t.Pos}
	case token.WHILE:
		p.next()
		cond := p.parseExpr()
		p.expect(token.DO)
		body := p.parseStmt()
		return &ast.While{Cond: cond, Body: body, WhilePos: t.Pos}
	default:
		if !t.IsNameLike() {
			p.errorf(t.Pos, "expected statement, found %s", t)
		}
		return p.parseCallOrAssign()
	}
}

func (p *parser) parseField() ast.Field {
	switch t := p.next(); t.Kind {
	case token.LEFTKW:
		return ast.Left
	case token.RIGHTKW:
		return ast.Right
	case token.VALUEKW:
		return ast.Value
	default:
		p.errorf(t.Pos, "expected field (left, right or value), found %s", t)
		return ast.Left
	}
}

func (p *parser) parseCallOrAssign() ast.Stmt {
	name := p.expectName()
	if p.tok().Kind == token.LPAREN {
		// Procedure call statement.
		args := p.parseArgs()
		return &ast.CallStmt{Name: name.Name(), Args: args, NamePos: name.Pos}
	}
	var lhs ast.LValue
	if p.tok().Kind == token.DOT {
		var fields []ast.Field
		for p.accept(token.DOT) {
			fields = append(fields, p.parseField())
		}
		lhs = &ast.FieldLV{
			Base:    name.Name(),
			Chain:   fields[:len(fields)-1],
			Field:   fields[len(fields)-1],
			NamePos: name.Pos,
		}
	} else {
		lhs = &ast.VarLV{Name: name.Name(), NamePos: name.Pos}
	}
	p.expect(token.ASSIGN)
	rhs := p.parseExpr()
	return &ast.Assign{Lhs: lhs, Rhs: rhs}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	if p.tok().Kind != token.RPAREN {
		args = append(args, p.parseExpr())
		for p.accept(token.COMMA) {
			args = append(args, p.parseExpr())
		}
	}
	p.expect(token.RPAREN)
	return args
}

// Expression grammar, loosest to tightest:
// or | and | not | comparison | additive | multiplicative | unary | primary.
func (p *parser) parseExpr() ast.Expr {
	p.nest(p.tok().Pos)
	x := p.parseOr()
	p.depth--
	return x
}

func (p *parser) parseOr() ast.Expr {
	x := p.parseAnd()
	for p.tok().Kind == token.OR {
		p.next()
		x = &ast.Binary{Op: ast.Or, X: x, Y: p.parseAnd()}
	}
	return x
}

func (p *parser) parseAnd() ast.Expr {
	x := p.parseNot()
	for p.tok().Kind == token.AND {
		p.next()
		x = &ast.Binary{Op: ast.And, X: x, Y: p.parseNot()}
	}
	return x
}

func (p *parser) parseNot() ast.Expr {
	if t := p.tok(); t.Kind == token.NOT {
		p.next()
		p.nest(t.Pos)
		x := p.parseNot()
		p.depth--
		return &ast.Unary{Op: ast.Not, X: x, OpPos: t.Pos}
	}
	return p.parseComparison()
}

var cmpOps = map[token.Kind]ast.Op{
	token.EQ: ast.Eq, token.NEQ: ast.Neq, token.LT: ast.Lt,
	token.GT: ast.Gt, token.LEQ: ast.Leq, token.GEQ: ast.Geq,
}

func (p *parser) parseComparison() ast.Expr {
	x := p.parseAdditive()
	if op, ok := cmpOps[p.tok().Kind]; ok {
		p.next()
		return &ast.Binary{Op: op, X: x, Y: p.parseAdditive()}
	}
	return x
}

func (p *parser) parseAdditive() ast.Expr {
	x := p.parseMultiplicative()
	for {
		switch p.tok().Kind {
		case token.PLUS:
			p.next()
			x = &ast.Binary{Op: ast.Add, X: x, Y: p.parseMultiplicative()}
		case token.MINUS:
			p.next()
			x = &ast.Binary{Op: ast.Sub, X: x, Y: p.parseMultiplicative()}
		default:
			return x
		}
	}
}

func (p *parser) parseMultiplicative() ast.Expr {
	x := p.parseUnary()
	for {
		switch p.tok().Kind {
		case token.STAR:
			p.next()
			x = &ast.Binary{Op: ast.Mul, X: x, Y: p.parseUnary()}
		case token.SLASH:
			p.next()
			x = &ast.Binary{Op: ast.Div, X: x, Y: p.parseUnary()}
		default:
			return x
		}
	}
}

func (p *parser) parseUnary() ast.Expr {
	if t := p.tok(); t.Kind == token.MINUS {
		p.next()
		p.nest(t.Pos)
		x := p.parseUnary()
		p.depth--
		return &ast.Unary{Op: ast.Neg, X: x, OpPos: t.Pos}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.tok()
	switch {
	case t.Kind == token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "bad integer literal %q", t.Lit)
		}
		return &ast.IntLit{Val: v, ValPos: t.Pos}
	case t.Kind == token.NIL:
		p.next()
		return &ast.NilLit{NilPos: t.Pos}
	case t.Kind == token.NEW:
		p.next()
		p.expect(token.LPAREN)
		p.expect(token.RPAREN)
		return &ast.NewExpr{NewPos: t.Pos}
	case t.Kind == token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e
	case t.IsNameLike():
		p.next()
		if p.tok().Kind == token.LPAREN {
			args := p.parseArgs()
			return &ast.CallExpr{Name: t.Name(), Args: args, NamePos: t.Pos}
		}
		if p.tok().Kind == token.DOT {
			var fields []ast.Field
			for p.accept(token.DOT) {
				fields = append(fields, p.parseField())
			}
			return &ast.FieldRef{
				Base:    t.Name(),
				Chain:   fields[:len(fields)-1],
				Field:   fields[len(fields)-1],
				NamePos: t.Pos,
			}
		}
		return &ast.VarRef{Name: t.Name(), NamePos: t.Pos}
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		return nil
	}
}
