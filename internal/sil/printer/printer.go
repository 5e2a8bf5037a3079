// Package printer renders SIL ASTs back to source text in the layout of
// the paper's figures, including the "||" parallel statements of Figure 8.
// Parse(Print(prog)) reproduces the AST, which the round-trip property
// tests rely on.
package printer

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sil/ast"
)

// Print renders a whole program.
func Print(p *ast.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n\n", p.Name)
	for i, d := range p.Decls {
		if i > 0 {
			b.WriteString("\n")
		}
		printDecl(&b, d)
	}
	return b.String()
}

// PrintDecl renders a single procedure declaration. The rendering is the
// same canonical text Print produces for the declaration inside a whole
// program, so it serves as the content basis for per-procedure body
// fingerprints: two declarations print identically iff their normalized
// ASTs are identical.
func PrintDecl(d *ast.ProcDecl) string {
	var b strings.Builder
	printDecl(&b, d)
	return b.String()
}

// PrintStmt renders a single statement at the given indent level.
func PrintStmt(s ast.Stmt, indent int) string {
	var b strings.Builder
	printStmt(&b, s, indent)
	return b.String()
}

// PrintExpr renders an expression.
func PrintExpr(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

func ind(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("  ")
	}
}

func varGroups(vars []*ast.VarDecl) string {
	if len(vars) == 0 {
		return ""
	}
	var parts []string
	i := 0
	for i < len(vars) {
		j := i
		for j < len(vars) && vars[j].Type == vars[i].Type {
			j++
		}
		names := make([]string, 0, j-i)
		for _, v := range vars[i:j] {
			names = append(names, v.Name)
		}
		parts = append(parts, fmt.Sprintf("%s: %s", strings.Join(names, ", "), vars[i].Type))
		i = j
	}
	return strings.Join(parts, "; ")
}

func printDecl(b *strings.Builder, d *ast.ProcDecl) {
	kw := "procedure"
	if d.IsFunction() {
		kw = "function"
	}
	fmt.Fprintf(b, "%s %s(%s)", kw, d.Name, varGroups(d.Params))
	if d.IsFunction() {
		fmt.Fprintf(b, ": %s", d.Result)
	}
	b.WriteString("\n")
	if len(d.Locals) > 0 {
		ind(b, 1)
		fmt.Fprintf(b, "%s\n", varGroups(d.Locals))
	}
	printStmt(b, d.Body, 0)
	if d.IsFunction() {
		fmt.Fprintf(b, "\nreturn (%s)", d.ReturnVar)
	}
	b.WriteString(";\n")
}

func printStmt(b *strings.Builder, s ast.Stmt, indent int) {
	switch s := s.(type) {
	case *ast.Block:
		ind(b, indent)
		b.WriteString("begin\n")
		for i, st := range s.Stmts {
			printStmt(b, st, indent+1)
			if i < len(s.Stmts)-1 {
				b.WriteString(";")
			}
			b.WriteString("\n")
		}
		ind(b, indent)
		b.WriteString("end")
	case *ast.Assign:
		ind(b, indent)
		b.WriteString(lvalueString(s.Lhs))
		b.WriteString(" := ")
		writeExpr(b, s.Rhs, 0)
	case *ast.If:
		ind(b, indent)
		b.WriteString("if ")
		writeExpr(b, s.Cond, 0)
		b.WriteString(" then\n")
		then := s.Then
		if s.Else != nil && endsInOpenIf(then) {
			// Dangling else: a then-branch whose rightmost statement is an
			// if without an else would capture OUR else on reparse; close it
			// with an explicit block.
			then = &ast.Block{Stmts: []ast.Stmt{then}}
		}
		printStmt(b, then, indent+1)
		if s.Else != nil {
			b.WriteString("\n")
			ind(b, indent)
			b.WriteString("else\n")
			printStmt(b, s.Else, indent+1)
		}
	case *ast.While:
		ind(b, indent)
		b.WriteString("while ")
		writeExpr(b, s.Cond, 0)
		b.WriteString(" do\n")
		printStmt(b, s.Body, indent+1)
	case *ast.CallStmt:
		ind(b, indent)
		writeCall(b, s.Name, s.Args)
	case *ast.Par:
		// Parallel branches print inline when simple, one statement per
		// "||" separator, matching Figure 8's layout.
		parts := make([]string, len(s.Branches))
		allSimple := true
		for i, br := range s.Branches {
			switch br.(type) {
			case *ast.Assign, *ast.CallStmt:
				var sb strings.Builder
				printStmt(&sb, br, 0)
				parts[i] = sb.String()
			default:
				allSimple = false
			}
		}
		if allSimple {
			ind(b, indent)
			b.WriteString(strings.Join(parts, " || "))
			return
		}
		for i, br := range s.Branches {
			if i > 0 {
				b.WriteString("\n")
				ind(b, indent)
				b.WriteString("||\n")
			}
			switch br.(type) {
			case *ast.Assign, *ast.CallStmt, *ast.Block:
				// Self-delimiting: safe to print bare.
			default:
				// An if/while branch would swallow a following "||" into its
				// own body on reparse, and a nested Par would flatten; close
				// such branches with an explicit block.
				br = &ast.Block{Stmts: []ast.Stmt{br}}
			}
			printStmt(b, br, indent)
		}
	default:
		ind(b, indent)
		fmt.Fprintf(b, "{ unknown statement %T }", s)
	}
}

func lvalueString(l ast.LValue) string {
	switch l := l.(type) {
	case *ast.VarLV:
		return l.Name
	case *ast.FieldLV:
		var b strings.Builder
		b.WriteString(l.Base)
		for _, f := range l.Chain {
			fmt.Fprintf(&b, ".%s", f)
		}
		fmt.Fprintf(&b, ".%s", l.Field)
		return b.String()
	}
	return "?"
}

// writeCall renders name(arg, arg, ...).
func writeCall(b *strings.Builder, name string, args []ast.Expr) {
	b.WriteString(name)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteString(", ")
		}
		writeExpr(b, a, 0)
	}
	b.WriteByte(')')
}

// Operator precedence levels for minimal parenthesization, matching the
// parser: or(1) < and(2) < not(3) < comparison(4) < additive(5) <
// multiplicative(6) < unary(7).
func opPrec(op ast.Op) int {
	switch op {
	case ast.Or:
		return 1
	case ast.And:
		return 2
	case ast.Not:
		return 3
	case ast.Eq, ast.Neq, ast.Lt, ast.Gt, ast.Leq, ast.Geq:
		return 4
	case ast.Add, ast.Sub:
		return 5
	case ast.Mul, ast.Div:
		return 6
	case ast.Neg:
		return 7
	}
	return 8
}

// writeExpr renders e into b with minimal parentheses for an enclosing
// precedence of outer. Writing into one builder keeps printing linear in
// the expression size (a long left-deep "+" chain would otherwise re-copy
// its growing prefix at every level).
func writeExpr(b *strings.Builder, e ast.Expr, outer int) {
	switch e := e.(type) {
	case *ast.IntLit:
		if e.Val < 0 {
			b.WriteByte('(')
			b.WriteString(strconv.FormatInt(e.Val, 10))
			b.WriteByte(')')
			return
		}
		b.WriteString(strconv.FormatInt(e.Val, 10))
	case *ast.VarRef:
		b.WriteString(e.Name)
	case *ast.NilLit:
		b.WriteString("nil")
	case *ast.NewExpr:
		b.WriteString("new()")
	case *ast.FieldRef:
		b.WriteString(e.Base)
		for _, f := range e.Chain {
			b.WriteByte('.')
			b.WriteString(f.String())
		}
		b.WriteByte('.')
		b.WriteString(e.Field.String())
	case *ast.CallExpr:
		writeCall(b, e.Name, e.Args)
	case *ast.Unary:
		p := opPrec(e.Op)
		if p < outer {
			b.WriteByte('(')
		}
		if e.Op == ast.Not {
			b.WriteString("not ")
		} else {
			b.WriteString("-")
		}
		writeExpr(b, e.X, p)
		if p < outer {
			b.WriteByte(')')
		}
	case *ast.Binary:
		p := opPrec(e.Op)
		// Left-associative: right operand needs parens at equal precedence.
		// Comparisons are NON-associative (the parser consumes at most one),
		// so a nested comparison needs parens on the left side too.
		xp := p
		if isComparison(e.Op) {
			xp = p + 1
		}
		if p < outer {
			b.WriteByte('(')
		}
		writeExpr(b, e.X, xp)
		b.WriteByte(' ')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		writeExpr(b, e.Y, p+1)
		if p < outer {
			b.WriteByte(')')
		}
	default:
		b.WriteString("?")
	}
}

// isComparison reports whether op is one of the non-associative comparison
// operators.
func isComparison(op ast.Op) bool {
	switch op {
	case ast.Eq, ast.Neq, ast.Lt, ast.Gt, ast.Leq, ast.Geq:
		return true
	}
	return false
}

// endsInOpenIf reports whether the rightmost statement reachable from s —
// the one a following "else" token would attach to on reparse — is an if
// without an else. Blocks close the spine (their "end" stops the parser's
// else-capture); Par branches end the spine at their last branch.
func endsInOpenIf(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.If:
		if s.Else == nil {
			return true
		}
		return endsInOpenIf(s.Else)
	case *ast.While:
		return endsInOpenIf(s.Body)
	case *ast.Par:
		if len(s.Branches) == 0 {
			return false
		}
		return endsInOpenIf(s.Branches[len(s.Branches)-1])
	}
	return false
}
