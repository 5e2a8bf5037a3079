package printer

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/sil/ast"
	"repro/internal/sil/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func TestVarGroupsMergeByType(t *testing.T) {
	prog := parse(t, `
program p
procedure main()
  a, b: handle; x: int; c: handle
begin
  a := b
end;
`)
	text := Print(prog)
	if !strings.Contains(text, "a, b: handle; x: int; c: handle") {
		t.Errorf("locals layout:\n%s", text)
	}
}

func TestNegativeLiteralsParenthesized(t *testing.T) {
	stmts, err := parser.ParseStmts("x := 0 - 1")
	if err != nil {
		t.Fatal(err)
	}
	_ = stmts
	// A negative IntLit (as the analyzer may build) prints as (-1) so it
	// re-parses.
	e := &ast.IntLit{Val: -1}
	if got := PrintExpr(e); got != "(-1)" {
		t.Errorf("negative literal prints %q", got)
	}
}

func TestPrecedencePreservation(t *testing.T) {
	cases := []string{
		"x := 1 + 2 * 3",
		"x := (1 + 2) * 3",
		"x := 1 - (2 - 3)",
		"x := -x + 1",
		"x := 8 / 4 / 2",
	}
	for _, src := range cases {
		stmts, err := parser.ParseStmts(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		printed := "x := " + PrintExpr(stmts[0].(*ast.Assign).Rhs)
		stmts2, err := parser.ParseStmts(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		again := "x := " + PrintExpr(stmts2[0].(*ast.Assign).Rhs)
		if printed != again {
			t.Errorf("%s: print unstable %q vs %q", src, printed, again)
		}
	}
}

func TestBooleanPrinting(t *testing.T) {
	stmts, err := parser.ParseStmts("if not (a = nil) and (x < 1 or y > 2) then x := 1")
	if err != nil {
		t.Fatal(err)
	}
	got := PrintStmt(stmts[0], 0)
	reparsed, err := parser.ParseStmts(got)
	if err != nil {
		t.Fatalf("reparse %q: %v", got, err)
	}
	if PrintStmt(reparsed[0], 0) != got {
		t.Errorf("boolean print unstable: %q", got)
	}
}

func TestParMixedBranchesPrintMultiline(t *testing.T) {
	par := &ast.Par{Branches: []ast.Stmt{
		&ast.Assign{Lhs: &ast.VarLV{Name: "x"}, Rhs: &ast.IntLit{Val: 1}},
		&ast.Block{Stmts: []ast.Stmt{
			&ast.Assign{Lhs: &ast.VarLV{Name: "y"}, Rhs: &ast.IntLit{Val: 2}},
		}},
	}}
	got := PrintStmt(par, 0)
	if !strings.Contains(got, "||") || !strings.Contains(got, "begin") {
		t.Errorf("mixed par layout:\n%s", got)
	}
}

func TestFunctionPrinting(t *testing.T) {
	prog := parse(t, `
program p
function f(n: int): int
  r: int
begin
  r := n
end
return (r);
procedure main()
  x: int
begin
  x := f(1)
end;
`)
	text := Print(prog)
	if !strings.Contains(text, "function f(n: int): int") {
		t.Errorf("function header:\n%s", text)
	}
	if !strings.Contains(text, "return (r)") {
		t.Errorf("return clause:\n%s", text)
	}
	if _, err := parser.Parse(text); err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
}

func TestChainedSelectorsPrint(t *testing.T) {
	stmts, err := parser.ParseStmts("a.left.right := b.right.left.value")
	if err != nil {
		t.Fatal(err)
	}
	got := PrintStmt(stmts[0], 0)
	if got != "a.left.right := b.right.left.value" {
		t.Errorf("chain print = %q", got)
	}
}

// TestPrintExprLinear: printing a left-deep "+" chain allocates bytes
// roughly linear in its length. Quadrupling the chain must grow allocation
// well under 8x (quadratic printing grows it about 16x).
func TestPrintExprLinear(t *testing.T) {
	chain := func(n int) ast.Expr {
		var e ast.Expr = &ast.VarRef{Name: "x"}
		for i := 1; i < n; i++ {
			e = &ast.Binary{Op: ast.Add, X: e, Y: &ast.IntLit{Val: 1}}
		}
		return e
	}
	allocated := func(e ast.Expr) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := PrintExpr(e)
		runtime.ReadMemStats(&after)
		if !strings.HasPrefix(out, "x + 1 + 1") {
			t.Fatalf("unexpected rendering %.20q", out)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 2000
	small, large := allocated(chain(n)), allocated(chain(4*n))
	ratio := float64(large) / float64(small)
	t.Logf("%d terms: %d bytes; %d terms: %d bytes (%.1fx)", n, small, 4*n, large, ratio)
	if ratio >= 8 {
		t.Errorf("printing %d terms allocated %d bytes, %d terms %d bytes: ratio %.1f, want < 8", n, small, 4*n, large, ratio)
	}
}
