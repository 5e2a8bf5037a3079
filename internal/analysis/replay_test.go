package analysis

// Regression tests for the quiescent-Info contract that the serving layer
// (internal/service) depends on: Replay must resolve call contexts against
// the converged tables read-only — by call site — and a shared *Info must
// tolerate concurrent readers (ProcOf/Shape/DiagStrings/Replay) without
// any mutation-after-Analyze.

import (
	"context"

	"fmt"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/progs"
	"repro/internal/sil/ast"
)

// callStmtsTo returns main's call statements to the named procedure, in
// source order.
func callStmtsTo(prog *ast.Program, name string) []*ast.CallStmt {
	var out []*ast.CallStmt
	walkStmts(prog.Proc("main").Body, func(s ast.Stmt) {
		if c, ok := s.(*ast.CallStmt); ok && c.Name == name {
			out = append(out, c)
		}
	})
	return out
}

// TestReplayBindsBySite: Replay resolves a call by its site. ctxpair's
// main calls bump from two sites with distinct entries; replaying main's
// body binds each site's own context, and replaying the second call from
// main's entry matrix — an entry that site never presented — still binds
// that site's context, not bottom.
func TestReplayBindsBySite(t *testing.T) {
	prog, err := progs.Compile(progs.CtxPair)
	if err != nil {
		t.Fatal(err)
	}
	roots := []string{"ra", "rb"}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: roots, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exact, hasMerged := info.Summaries["bump"].ContextStats(); exact != 2 || hasMerged {
		t.Fatalf("precondition: bump has two exact contexts and no fallback (exact=%d merged=%v)", exact, hasMerged)
	}

	// Replay main's whole body with the same machinery Info.Replay uses,
	// plus an onCall probe capturing which context every call site binds.
	main := prog.Proc("main")
	p0 := entryForMain(main, info.Opts)
	var last *ProcContext
	a := &analyzer{
		eng:       newEngine(nil, info.Prog, info.Opts, info),
		recording: true,
		mute:      true,
		sink:      map[ast.Stmt]*matrix.Matrix{},
		cur:       main,
		onCall:    func(it item) { last = it.ctx },
	}
	calls := callStmtsTo(prog, "bump")
	if len(calls) != 2 {
		t.Fatalf("ctxpair main should call bump twice, found %d", len(calls))
	}
	bound := map[*ast.CallStmt]*ProcContext{}
	m := p0.Copy()
	for _, s := range main.Body.Stmts {
		last = nil
		m = a.stmt(m, s)
		if c, ok := s.(*ast.CallStmt); ok && c.Name == "bump" {
			bound[c] = last
		}
	}
	if m == nil {
		t.Fatal("replay of main must not end in bottom")
	}
	for i, c := range calls {
		got := bound[c]
		if got == nil || got.IsMerged() || got.Exit() == nil {
			t.Fatalf("call %d: replay bound %v, want its site's exact context with an exit", i, got)
		}
		if got != info.sites[c].ctx {
			t.Errorf("call %d: replay bound a context other than its site's", i)
		}
	}
	if bound[calls[0]] == bound[calls[1]] {
		t.Error("the two bump sites have distinct entries but replay bound one context")
	}

	// The public API agrees: replaying the second call from main's entry
	// is non-bottom and records a matrix before every statement it visited.
	mats, final := info.Replay("main", p0, []ast.Stmt{calls[1]})
	if final == nil {
		t.Fatal("Info.Replay of the second bump call returned bottom")
	}
	if len(mats) == 0 {
		t.Error("Info.Replay recorded no before-matrices")
	}
}

// TestReplayDeadCodeCallStaysQuiescent: a call only reachable after a
// non-returning call is never analyzed, so its callee has no summary.
// Replaying that statement must return bottom WITHOUT creating a summary —
// the old code materialized one in the shared Info.Summaries map, a data
// race under concurrent Replay.
func TestReplayDeadCodeCallStaysQuiescent(t *testing.T) {
	src := `
program deadcall
procedure main()
  x: handle
begin
  x := new();
  spin(x);
  touch(x)
end;
procedure spin(h: handle)
begin
  spin(h)
end;
procedure touch(h: handle)
begin
  h.value := 1
end;
`
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := info.Summaries["touch"]; ok {
		t.Fatal("precondition: touch must be unreachable (no summary)")
	}
	call := callStmtsTo(prog, "touch")[0]
	p0 := matrix.New()
	p0.Add("x", matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.Root})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, final := info.Replay("main", p0, []ast.Stmt{call}); final != nil {
					t.Error("replay of a dead-code call must be bottom")
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := info.Summaries["touch"]; ok {
		t.Error("Replay mutated Info.Summaries (created a summary for touch)")
	}
}

// TestSharedInfoConcurrentReaders hammers one shared Info from 8
// goroutines mixing every read surface the serving layer uses — ProcOf,
// Shape, ExitShape, DiagStrings, ContextTableStats, summary accessors, and
// full-body Replay. Run under -race this pins the immutability-after-
// Analyze contract.
func TestSharedInfoConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		roots     []string
	}{
		{"add_and_reverse", progs.AddAndReverse, nil},
		{"ctxpair", progs.CtxPair, []string{"ra", "rb"}},
		{"mutualwalk", progs.MutualWalk, []string{"root"}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, err := progs.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Analyze(context.Background(), prog, Options{ExternalRoots: tc.roots})
			if err != nil {
				t.Fatal(err)
			}
			main := prog.Proc("main")
			p0 := entryForMain(main, info.Opts)
			want := fmt.Sprintf("%v|%v|%v", info.Shape(), info.ExitShape(), info.DiagStrings())
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						got := fmt.Sprintf("%v|%v|%v", info.Shape(), info.ExitShape(), info.DiagStrings())
						if got != want {
							t.Errorf("concurrent read diverged: %s != %s", got, want)
							return
						}
						for s := range info.Before {
							if _, ok := info.ProcOf(s); !ok {
								t.Error("ProcOf lost a statement")
								return
							}
						}
						_ = info.ContextTableStats()
						for _, sum := range info.Summaries {
							_ = sum.ReadOnlyParam(0)
							for _, c := range sum.Contexts() {
								_, _ = c.Entry(), c.Exit()
							}
						}
						if _, final := info.Replay("main", p0, main.Body.Stmts); final == nil {
							t.Error("replay of main went to bottom")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
