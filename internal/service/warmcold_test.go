package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/progs"
	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// chainSource is the chain-scale program shape of the bench module's
// generator (bench/gen.go): main calls wk on an external tree and even;
// wi calls w(i-1) on both children; the mutually recursive even/odd pair
// walks the tree; wi with (i+phase)%3 == 0 swaps its children. incs holds
// k+2 value increments.
func chainSource(name string, k, phase int, incs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nprocedure main()\n  root: handle\nbegin\n  w%d(root);\n  even(root)\nend;\n", name, k)
	for i := k; i >= 1; i-- {
		fmt.Fprintf(&b, "procedure w%d(h: handle)\n  l, r: handle\nbegin\n  if h <> nil then\n  begin\n", i)
		fmt.Fprintf(&b, "    h.value := h.value + %d;\n    l := h.left;\n    r := h.right", incs[i-1])
		if i > 1 {
			fmt.Fprintf(&b, ";\n    w%d(l);\n    w%d(r)", i-1, i-1)
		}
		if (i+phase)%3 == 0 {
			b.WriteString(";\n    h.left := r;\n    h.right := l")
		}
		b.WriteString("\n  end\nend;\n")
	}
	for _, p := range [2][2]string{{"even", "odd"}, {"odd", "even"}} {
		inc := incs[k]
		if p[0] == "odd" {
			inc = incs[k+1]
		}
		fmt.Fprintf(&b, "procedure %s(h: handle)\n  l, r: handle\nbegin\n  if h <> nil then\n  begin\n", p[0])
		fmt.Fprintf(&b, "    h.value := h.value + %d;\n    l := h.left;\n    r := h.right;\n    %s(l);\n    %s(r)\n  end\nend;\n", inc, p[1], p[1])
	}
	return b.String()
}

// replaceOnce rewrites the single occurrence of old in src.
func replaceOnce(t *testing.T, src, old, new string) string {
	t.Helper()
	if n := strings.Count(src, old); n != 1 {
		t.Fatalf("%q occurs %d times, want 1", old, n)
	}
	return strings.Replace(src, old, new, 1)
}

// warmColdPair returns a default service (result cache and summary store
// on) and a cold reference with both disabled: every reference response
// is a fresh, unseeded analysis.
func warmColdPair() (warm, cold *Service) {
	return New(Options{}), New(Options{CacheCapacity: -1, SummaryCapacity: -1})
}

// sameAsCold analyzes req on both services and reports whether the bodies
// are byte-identical.
func sameAsCold(t *testing.T, warm, cold *Service, req Request) bool {
	t.Helper()
	w := warm.Analyze(context.Background(), req)
	c := cold.Analyze(context.Background(), req)
	if w.Err != nil || c.Err != nil {
		t.Fatalf("%s: warm err %v, cold err %v", req.Name, w.Err, c.Err)
	}
	return bytes.Equal(w.Body, c.Body)
}

// TestWarmEqualsColdChainEdits pins warm == cold on a fixed request
// sequence over two k=4 chains. The third request seeds w1 from the
// edited chain0, where w2 reaches w1 from different places than in the
// edited chain1; under whole-entry context keys the seeded result listed
// 17 contexts (w1: 8) where a cold analysis lists 13 (w1: 4).
func TestWarmEqualsColdChainEdits(t *testing.T) {
	incs := []int{1, 2, 3, 4, 5, 6}
	chain0 := chainSource("chain0", 4, 0, incs)
	chain0 = replaceOnce(t, chain0, "  w4(root);\n", "  w4(root);\n  w4(root);\n")
	chain0 = replaceOnce(t, chain0, "    w2(r);\n", "")
	chain0 = replaceOnce(t, chain0, "    h.right := l\n  end\nend;\nprocedure w2", "    h.right := l\n  end;\n  r.right := nil\nend;\nprocedure w2")
	chain0 = replaceOnce(t, chain0, "    even(l);\n", "    even(l);\n    even(l);\n")
	chain1 := chainSource("chain1", 4, 1, incs)
	chain1Edited := replaceOnce(t, chain1, "    odd(l);\n    odd(r)\n", "    odd(l)\n")

	warm, cold := warmColdPair()
	for i, src := range []string{chain0, chain1, chain1Edited} {
		req := Request{Name: fmt.Sprintf("step%d", i+1), Source: src, Roots: []string{"root"}}
		if !sameAsCold(t, warm, cold, req) {
			t.Errorf("request %d: warm body differs from cold", i+1)
		}
	}
	if st := warm.Stats().SummaryStore; st.Hits == 0 {
		t.Errorf("the sequence never seeded a summary: %+v", st)
	}
}

// editStreamBases are the programs the seeded edit stream starts from:
// the two corpus programs with several contexts per procedure and the two
// k=4 chains.
func editStreamBases() []progs.Entry {
	incs := []int{3, 1, 4, 1, 5, 9}
	out := []progs.Entry{
		{Name: "ctxpair", Source: progs.CtxPair, Roots: []string{"ra", "rb"}},
		{Name: "mutualwalk", Source: progs.MutualWalk, Roots: []string{"root"}},
	}
	for phase := 0; phase < 2; phase++ {
		name := fmt.Sprintf("chain%d", phase)
		out = append(out, progs.Entry{Name: name, Source: chainSource(name, 4, phase, incs), Roots: []string{"root"}})
	}
	return out
}

// callBlocks returns (block, index) pairs of every call statement.
func callBlocks(prog *ast.Program) (blocks []*ast.Block, idx []int) {
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for i, c := range s.Stmts {
				switch c := c.(type) {
				case *ast.CallStmt:
					blocks, idx = append(blocks, s), append(idx, i)
				case *ast.Assign:
					if _, ok := c.Rhs.(*ast.CallExpr); ok {
						blocks, idx = append(blocks, s), append(idx, i)
					}
				}
				walk(c)
			}
		case *ast.If:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.While:
			walk(s.Body)
		}
	}
	for _, d := range prog.Decls {
		walk(d.Body)
	}
	return blocks, idx
}

// intLits returns the integer literals on the right of assignments.
func intLits(prog *ast.Program) []*ast.IntLit {
	var out []*ast.IntLit
	var expr func(e ast.Expr)
	expr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.IntLit:
			out = append(out, e)
		case *ast.Binary:
			expr(e.X)
			expr(e.Y)
		case *ast.Unary:
			expr(e.X)
		}
	}
	var stmt func(s ast.Stmt)
	stmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, c := range s.Stmts {
				stmt(c)
			}
		case *ast.If:
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *ast.While:
			stmt(s.Body)
		case *ast.Assign:
			expr(s.Rhs)
		}
	}
	for _, d := range prog.Decls {
		stmt(d.Body)
	}
	return out
}

// editOnce applies one edit of the given kind (literal, add-call,
// drop-call or link-write) to src at a site rng picks.
func editOnce(t *testing.T, src, kind string, rng *rand.Rand) string {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "literal":
		if lits := intLits(prog); len(lits) > 0 {
			lits[rng.Intn(len(lits))].Val += int64(1 + rng.Intn(9))
		}
	case "add-call", "drop-call":
		blocks, idx := callBlocks(prog)
		if len(blocks) == 0 {
			return src
		}
		j := rng.Intn(len(blocks))
		b, i := blocks[j], idx[j]
		if kind == "add-call" {
			b.Stmts = append(b.Stmts[:i+1], append([]ast.Stmt{b.Stmts[i]}, b.Stmts[i+1:]...)...)
		} else if len(b.Stmts) > 1 {
			b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
		}
	case "link-write":
		d := prog.Decls[rng.Intn(len(prog.Decls))]
		var hs []string
		for _, v := range append(append([]*ast.VarDecl(nil), d.Params...), d.Locals...) {
			if v.Type == ast.HandleT {
				hs = append(hs, v.Name)
			}
		}
		if len(hs) == 0 {
			return src
		}
		w := &ast.Assign{Lhs: &ast.FieldLV{Base: hs[rng.Intn(len(hs))], Field: ast.Field(rng.Intn(2))}, Rhs: &ast.NilLit{}}
		d.Body.Stmts = append(d.Body.Stmts, w)
	}
	return printer.Print(prog)
}

// TestWarmEqualsColdEditStream replays a fixed seeded stream of edit
// sessions — literal, add-call, drop-call, link-write and revert edits —
// over ctxpair, mutualwalk and two k=4 chains on one default service, and
// requires every response to be byte-identical to a cold service's. It
// also pins how many seeded analyses failed validation and re-ran cold
// (Stats.SummaryColdReruns): a move in either direction is a change in
// the warm path worth a look.
func TestWarmEqualsColdEditStream(t *testing.T) {
	const sessions, editsPerSession, wantColdReruns = 8, 12, 22
	kinds := []string{"literal", "add-call", "drop-call", "link-write", "revert"}
	rng := rand.New(rand.NewSource(7))
	warm, cold := warmColdPair()
	bases := editStreamBases()
	differ, total := 0, 0
	for s := 0; s < sessions; s++ {
		base := bases[s%len(bases)]
		history := []string{base.Source}
		cur := base.Source
		for e := 0; e < editsPerSession; e++ {
			if kind := kinds[rng.Intn(len(kinds))]; kind == "revert" {
				cur = history[rng.Intn(len(history))]
			} else {
				cur = editOnce(t, cur, kind, rng)
				history = append(history, cur)
			}
			total++
			if !sameAsCold(t, warm, cold, Request{Name: base.Name, Source: cur, Roots: base.Roots}) {
				differ++
				t.Errorf("session %d (%s) edit %d: warm body differs from cold", s, base.Name, e)
			}
		}
	}
	st := warm.Stats()
	t.Logf("%d of %d responses differ; %d cold re-runs; store %+v", differ, total, st.SummaryColdReruns, st.SummaryStore)
	if st.SummaryStore.Hits == 0 {
		t.Error("the stream never seeded a summary")
	}
	if st.SummaryColdReruns != wantColdReruns {
		t.Errorf("SummaryColdReruns = %d, want %d", st.SummaryColdReruns, wantColdReruns)
	}
}
