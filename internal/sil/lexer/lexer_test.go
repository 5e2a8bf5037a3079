package lexer

import (
	"testing"

	"repro/internal/sil/token"
)

// all tokenizes the entire input, ending with the EOF token.
func all(src string) ([]token.Token, []error) {
	l := New(src)
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, l.Errors()
		}
	}
}

func kinds(src string) []token.Kind {
	toks, _ := all(src)
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	got := kinds("lside := root.left;")
	want := []token.Kind{token.IDENT, token.ASSIGN, token.IDENT, token.DOT, token.LEFTKW, token.SEMICOLON, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	got := kinds(":= : <> <= >= < > = || + - * / ( ) , .")
	want := []token.Kind{
		token.ASSIGN, token.COLON, token.NEQ, token.LEQ, token.GEQ,
		token.LT, token.GT, token.EQ, token.PAR, token.PLUS, token.MINUS,
		token.STAR, token.SLASH, token.LPAREN, token.RPAREN, token.COMMA,
		token.DOT, token.EOF,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	toks, errs := all("program if then else while do begin end nil new int handle myVar x1")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []token.Kind{
		token.PROGRAM, token.IF, token.THEN, token.ELSE, token.WHILE,
		token.DO, token.BEGIN, token.END, token.NIL, token.NEW,
		token.INTKW, token.HANDLEKW, token.IDENT, token.IDENT, token.EOF,
	}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, want[i])
		}
	}
	if toks[12].Lit != "myVar" || toks[13].Lit != "x1" {
		t.Errorf("ident literals: %q %q", toks[12].Lit, toks[13].Lit)
	}
}

func TestComments(t *testing.T) {
	toks, errs := all("a { this is a comment } := { another } 5")
	if len(errs) > 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []token.Kind{token.IDENT, token.ASSIGN, token.INT, token.EOF}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, want[i])
		}
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, errs := all("a := { oops")
	if len(errs) == 0 {
		t.Error("unterminated comment should error")
	}
}

func TestIllegalChar(t *testing.T) {
	toks, errs := all("a # b")
	if len(errs) == 0 {
		t.Error("expected error for #")
	}
	if toks[1].Kind != token.ILLEGAL {
		t.Errorf("token 1 = %v, want ILLEGAL", toks[1].Kind)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := all("a\n  b")
	if toks[0].Pos != (token.Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos != (token.Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestSingleBarIsIllegal(t *testing.T) {
	_, errs := all("a | b")
	if len(errs) == 0 {
		t.Error("single | should be illegal")
	}
}

func TestNumbers(t *testing.T) {
	toks, _ := all("042 7")
	if toks[0].Lit != "042" || toks[1].Lit != "7" {
		t.Errorf("number literals: %q %q", toks[0].Lit, toks[1].Lit)
	}
}
