package analysis

// Tests for the call-site context table (context.go): the merged fallback
// exists only where recursion binds it, sites with equal entries share one
// context, sites with different entries do not, and a call inside a loop
// joins its iterations into one context.

import (
	"context"
	"slices"
	"testing"

	"repro/internal/progs"
	"repro/internal/sil/ast"
)

// TestLazyFallbackZeroAnalyses: only a same-SCC call creates a merged
// fallback, so a procedure outside every recursive cycle has none and
// never spends a fallback analysis — ctxpair's bump, called from two sites
// with distinct entries, included. Corpus programs without recursion
// analyze no fallback at all.
func TestLazyFallbackZeroAnalyses(t *testing.T) {
	noRecursion := map[string]bool{"leftmost": true, "listinc": true, "dagdemo": true, "ctxpair": true}
	for _, e := range progs.Catalog {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			prog, err := progs.Compile(e.Source)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Analyze(context.Background(), prog, Options{ExternalRoots: e.Roots})
			if err != nil {
				t.Fatal(err)
			}
			ct := info.ContextTableStats()
			if noRecursion[e.Name] && (ct.MergedProcs != 0 || ct.FallbackAnalyses != 0) {
				t.Errorf("program without recursion has fallbacks: %+v", ct)
			}
			if ct.Evictions != 0 {
				t.Errorf("the call-site table never evicts: %+v", ct)
			}
			scc, callees := callGraphSCC(prog), ast.Callees(prog)
			for name, s := range info.Summaries {
				_, hasMerged := s.ContextStats()
				if !hasMerged {
					if s.fbAnalyses != 0 {
						t.Errorf("%s: %d fallback analyses without a fallback", name, s.fbAnalyses)
					}
					continue
				}
				recursive := false
				for caller := range scc {
					if scc[caller] == scc[name] && slices.Contains(callees[caller], name) {
						recursive = true
					}
				}
				if !recursive {
					t.Errorf("%s has a fallback but no same-SCC caller", name)
				}
			}
		})
	}
}

// TestNoSharingForWritingProcedure: mark is called on an external tree
// and on a fresh node; the two sites present different entries, so each
// binds a context of its own.
func TestNoSharingForWritingProcedure(t *testing.T) {
	src := `
program sharewrite
procedure main()
  root, x: handle
begin
  mark(root);
  x := new();
  mark(x)
end;
procedure mark(t: handle)
  l, r: handle
begin
  if t <> nil then
  begin
    t.value := 1;
    l := t.left;
    r := t.right;
    mark(l);
    mark(r)
  end
end;
`
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: []string{"root"}})
	if err != nil {
		t.Fatal(err)
	}
	mark := info.Summaries["mark"]
	if exact, _ := mark.ContextStats(); exact != 2 {
		t.Errorf("both entries of mark should be exact contexts, got %d", exact)
	}
	if !mark.UpdateParams[0] {
		t.Error("mark's parameter should be classified as an update argument")
	}
}

// TestEqualSiteEntriesShareContext: viaa and viab each call depth on a
// fresh node, so their two sites present equal entries at the same round
// barrier and share one context (main's call on the external root keeps
// its own). Both presenters resolved bottom in-round; the shared
// context's first exit must re-run both, or a caller's exit stays bottom
// and punches a hole in main's recorded matrices.
func TestEqualSiteEntriesShareContext(t *testing.T) {
	src := `
program samebarrier
procedure main()
  root: handle; d, da, db: int
begin
  d := depth(root);
  if d > 0 then
    da := viaa()
  else
    db := viab()
end;
function viaa(): int
  x: handle; d: int
begin
  x := new();
  d := depth(x)
end
return (d);
function viab(): int
  y: handle; d: int
begin
  y := new();
  d := depth(y)
end
return (d);
function depth(t: handle): int
  l: handle; dl: int
begin
  if t <> nil then
  begin
    l := t.left;
    if l <> nil then
      dl := 2
    else
      dl := 1
  end
end
return (dl);
`
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: []string{"root"}})
	if err != nil {
		t.Fatal(err)
	}
	main := info.Prog.Proc("main")
	last := main.Body.Stmts[len(main.Body.Stmts)-1]
	if info.After[last] == nil {
		t.Fatal("main's exit matrix is missing: a presenter of the shared context was never re-run")
	}
	for _, fn := range []string{"viaa", "viab"} {
		if ctxs := info.Summaries[fn].Contexts(); len(ctxs) != 1 || ctxs[0].Exit() == nil {
			t.Errorf("%s's exit stayed bottom", fn)
		}
	}
	if exact, _ := info.Summaries["depth"].ContextStats(); exact != 2 {
		t.Errorf("depth: the two fresh-node sites should share one context beside main's: %d exact contexts", exact)
	}
	shared := 0
	for _, c := range info.Summaries["depth"].Contexts() {
		if c.sites > shared {
			shared = c.sites
		}
	}
	if shared != 2 {
		t.Errorf("no depth context is bound by both fresh-node sites (max binders %d)", shared)
	}
}

// TestLoopCallBindsOneContext: a call inside a while loop presents once per
// iteration of Figure 3's approximation; the presentations join into the
// site's one entry, which covers every iteration's.
func TestLoopCallBindsOneContext(t *testing.T) {
	src := `
program loopcall
procedure main()
  root, h: handle
begin
  h := root;
  while h <> nil do
  begin
    touch(h);
    h := h.left
  end
end;
procedure touch(t: handle)
begin
  if t <> nil then t.value := 1
end;
`
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: []string{"root"}})
	if err != nil {
		t.Fatal(err)
	}
	touch := info.Summaries["touch"]
	if exact, hasMerged := touch.ContextStats(); exact != 1 || hasMerged {
		t.Fatalf("touch should have one context and no fallback, got %d (fallback %v)", exact, hasMerged)
	}
	if touch.Contexts()[0].Exit() == nil {
		t.Error("touch's context has no exit")
	}
	main := info.Prog.Proc("main")
	if info.After[main.Body.Stmts[len(main.Body.Stmts)-1]] == nil {
		t.Error("main's exit matrix is missing")
	}
}
