package parser

import (
	"strings"
	"testing"

	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// addAndReverse is the paper's Figure 7 program, transcribed verbatim
// modulo lexical conventions (<> for ≠, {} comments).
const addAndReverse = `
program add_and_reverse

procedure main()
  root, lside, rside: handle; i: int
begin
  { ... build a tree at root ... }
  lside := root.left;
  rside := root.right;
  add_n(lside, 1);
  add_n(rside, -1);
  reverse(root)
end;

procedure add_n(h: handle; n: int)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + n;
    l := h.left;
    r := h.right;
    add_n(l, n);
    add_n(r, n)
  end
end;

procedure reverse(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    reverse(l);
    reverse(r);
    h.left := r;
    h.right := l
  end
end;
`

func TestParseFig7Program(t *testing.T) {
	prog, err := Parse(addAndReverse)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if prog.Name != "add_and_reverse" {
		t.Errorf("name = %q", prog.Name)
	}
	if len(prog.Decls) != 3 {
		t.Fatalf("decls = %d", len(prog.Decls))
	}
	main := prog.Proc("main")
	if main == nil || len(main.Params) != 0 || len(main.Locals) != 4 {
		t.Fatalf("main malformed: %+v", main)
	}
	if main.Locals[0].Type != ast.HandleT || main.Locals[3].Type != ast.IntT {
		t.Error("main local types wrong")
	}
	addN := prog.Proc("add_n")
	if addN == nil || len(addN.Params) != 2 {
		t.Fatalf("add_n malformed")
	}
	if addN.Params[0].Type != ast.HandleT || addN.Params[1].Type != ast.IntT {
		t.Error("add_n param types wrong")
	}
	// Body of add_n: one if statement guarding a block of 5.
	ifStmt, ok := addN.Body.Stmts[0].(*ast.If)
	if !ok {
		t.Fatalf("add_n body[0] is %T", addN.Body.Stmts[0])
	}
	blk, ok := ifStmt.Then.(*ast.Block)
	if !ok || len(blk.Stmts) != 5 {
		t.Fatalf("add_n then-block has %T", ifStmt.Then)
	}
	if _, ok := blk.Stmts[3].(*ast.CallStmt); !ok {
		t.Errorf("recursive call expected, got %T", blk.Stmts[3])
	}
}

func TestParseFieldAssignments(t *testing.T) {
	stmts, err := ParseStmts("a := b.left; a.right := c; a.value := x + 1; x := a.value")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(stmts) != 4 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	a0 := stmts[0].(*ast.Assign)
	if fr, ok := a0.Rhs.(*ast.FieldRef); !ok || fr.Base != "b" || fr.Field != ast.Left {
		t.Errorf("stmt 0 rhs: %#v", a0.Rhs)
	}
	a1 := stmts[1].(*ast.Assign)
	if lv, ok := a1.Lhs.(*ast.FieldLV); !ok || lv.Base != "a" || lv.Field != ast.Right {
		t.Errorf("stmt 1 lhs: %#v", a1.Lhs)
	}
}

func TestParseChainedSelectors(t *testing.T) {
	stmts, err := ParseStmts("a.left.right := b.right.left.value")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	lv := stmts[0].(*ast.Assign).Lhs.(*ast.FieldLV)
	if lv.Base != "a" || len(lv.Chain) != 1 || lv.Chain[0] != ast.Left || lv.Field != ast.Right {
		t.Errorf("lhs chain: %#v", lv)
	}
	fr := stmts[0].(*ast.Assign).Rhs.(*ast.FieldRef)
	if fr.Base != "b" || len(fr.Chain) != 2 || fr.Field != ast.Value {
		t.Errorf("rhs chain: %#v", fr)
	}
}

func TestParseParallelStatement(t *testing.T) {
	stmts, err := ParseStmts("l := h.left || r := h.right || h.value := h.value + n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	par, ok := stmts[0].(*ast.Par)
	if !ok || len(par.Branches) != 3 {
		t.Fatalf("par: %#v", stmts[0])
	}
}

func TestParseWhileAndNew(t *testing.T) {
	stmts, err := ParseStmts("h := new(); while l.left <> nil do l := l.left")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := stmts[0].(*ast.Assign).Rhs.(*ast.NewExpr); !ok {
		t.Error("new() expected")
	}
	w := stmts[1].(*ast.While)
	if _, ok := w.Cond.(*ast.Binary); !ok {
		t.Error("while cond should be binary")
	}
}

func TestParseFunction(t *testing.T) {
	src := `
program p
function build(d: int): handle
  h: handle
begin
  h := new()
end
return (h);
procedure main()
  r: handle
begin
  r := build(3)
end;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := prog.Proc("build")
	if f == nil || !f.IsFunction() || f.Result != ast.HandleT || f.ReturnVar != "h" {
		t.Fatalf("function decl: %+v", f)
	}
	m := prog.Proc("main")
	call, ok := m.Body.Stmts[0].(*ast.Assign).Rhs.(*ast.CallExpr)
	if !ok || call.Name != "build" {
		t.Errorf("call expr: %#v", m.Body.Stmts[0])
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	stmts, err := ParseStmts("x := 1 + 2 * 3 - 4 / 2")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got := printer.PrintExpr(stmts[0].(*ast.Assign).Rhs)
	if got != "1 + 2 * 3 - 4 / 2" {
		t.Errorf("precedence print: %q", got)
	}
	stmts2, _ := ParseStmts("x := (1 + 2) * 3")
	got2 := printer.PrintExpr(stmts2[0].(*ast.Assign).Rhs)
	if got2 != "(1 + 2) * 3" {
		t.Errorf("parens print: %q", got2)
	}
}

func TestParseBooleanConditions(t *testing.T) {
	stmts, err := ParseStmts("if not (a = nil) and (x < 3 or y >= 2) then x := 1 else x := 2")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ifs := stmts[0].(*ast.If)
	if ifs.Else == nil {
		t.Error("else missing")
	}
	b, ok := ifs.Cond.(*ast.Binary)
	if !ok || b.Op != ast.And {
		t.Errorf("cond: %#v", ifs.Cond)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"program",                      // missing name
		"program p procedure main(",    // unterminated params
		"program p procedure main() x", // junk before begin
		"program p garbage",            // not a decl
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	badStmts := []string{
		"a := ",         // missing rhs
		"a.foo := b",    // bad field
		"if x then",     // missing stmt
		"a := b c := d", // missing semicolon inside block form
	}
	for _, src := range badStmts {
		if _, err := ParseStmts("begin " + src + " end"); err == nil {
			t.Errorf("ParseStmts(%q) should fail", src)
		}
	}
}

// TestNestingCap: every nesting form parses up to the cap and fails with
// an ordinary parse error past it, instead of recursing until the stack
// overflows.
func TestNestingCap(t *testing.T) {
	forms := []struct {
		name string
		stmt func(n int) string
	}{
		{"parens", func(n int) string { return "x := " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }},
		{"call args", func(n int) string { return "x := " + strings.Repeat("f(", n) + "1" + strings.Repeat(")", n) }},
		{"not", func(n int) string { return "if " + strings.Repeat("not ", n) + "b then x := 1" }},
		{"unary minus", func(n int) string { return "x := " + strings.Repeat("-", n) + "1" }},
		{"begin", func(n int) string { return strings.Repeat("begin ", n) + "x := 1" + strings.Repeat(" end", n) }},
		{"if", func(n int) string { return strings.Repeat("if b then ", n) + "x := 1" }},
		{"while", func(n int) string { return strings.Repeat("while b do ", n) + "x := 1" }},
	}
	prog := func(stmt string) string {
		return "program deep\nprocedure main()\n  x: int; b: int\nbegin\n  " + stmt + "\nend;\n"
	}
	for _, f := range forms {
		if _, err := Parse(prog(f.stmt(maxNesting - 10))); err != nil {
			t.Errorf("%s: nesting %d must parse: %v", f.name, maxNesting-10, err)
		}
		_, err := Parse(prog(f.stmt(maxNesting + 1)))
		if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s: nesting %d: got %v, want a nesting parse error", f.name, maxNesting+1, err)
		}
		if _, err := ParseStmts(f.stmt(maxNesting + 1)); err == nil {
			t.Errorf("%s: ParseStmts must apply the same cap", f.name)
		}
	}
	// Depth is a nesting level, not a count: many shallow siblings parse.
	siblings := strings.Repeat("x := ((1)); ", 3*maxNesting) + "x := 1"
	if _, err := Parse(prog(siblings)); err != nil {
		t.Errorf("%d sibling statements: %v", 3*maxNesting, err)
	}
}

// TestLexErrorWinsOverParseError: the streaming parser still reports the
// first lexical error anywhere in the source, even past a parse error.
func TestLexErrorWinsOverParseError(t *testing.T) {
	_, err := Parse("program p garbage\nprocedure main() begin x := 1 # end;")
	if err == nil || !strings.Contains(err.Error(), "illegal character") {
		t.Fatalf("got %v, want the lexical error", err)
	}
}

func TestRoundTripFig7(t *testing.T) {
	prog, err := Parse(addAndReverse)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := printer.Print(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse printed program: %v\n%s", err, text)
	}
	text2 := printer.Print(prog2)
	if text != text2 {
		t.Errorf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestRoundTripParallel(t *testing.T) {
	src := `
program par_demo
procedure main()
  a, b, c: handle
begin
  a := new() || b := new();
  if a <> nil then
    c := a.left || c := a.right
end;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := printer.Print(prog)
	if !strings.Contains(text, "||") {
		t.Fatalf("printed text lost ||:\n%s", text)
	}
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if printer.Print(prog2) != text {
		t.Error("parallel print not stable")
	}
}
