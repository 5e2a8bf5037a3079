package par

import (
	"context"

	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/progs"
	"repro/internal/sil/printer"
)

func analyzeSrc(t *testing.T, src string, roots ...string) *analysis.Info {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.Analyze(context.Background(), prog, analysis.Options{ExternalRoots: roots})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestMutualWalkParallelizes: mutually recursive procedures still fuse
// their recursive call pairs.
func TestMutualWalkParallelizes(t *testing.T) {
	res := Parallelize(analyzeSrc(t, progs.MutualWalk, "root"), DefaultOptions)
	text := printer.Print(res.Prog)
	if !strings.Contains(text, "odd(l) || odd(r)") {
		t.Errorf("even should fuse odd calls:\n%s", text)
	}
	if !strings.Contains(text, "even(l) || even(r)") {
		t.Errorf("odd should fuse even calls:\n%s", text)
	}
}

// TestTreeCopyParallelizes: the recursive copies are independent and the
// link attachments of fresh nodes fuse with them.
func TestTreeCopyParallelizes(t *testing.T) {
	res := Parallelize(analyzeSrc(t, progs.TreeCopy, "root"), DefaultOptions)
	if res.Stats.ParStatements == 0 {
		t.Fatalf("treecopy found no parallelism:\n%s", printer.Print(res.Prog))
	}
	text := printer.Print(res.Prog)
	// The two recursive copies read disjoint subtrees (h.left vs h.right
	// via temporaries), so at least one fused group must contain both.
	if !strings.Contains(text, "||") {
		t.Errorf("no parallel statement:\n%s", text)
	}
}

// TestBitonicSwapPairFuses: the conditional subtree swap's two updates
// run in parallel, as in Figure 8's reverse.
func TestBitonicSwapPairFuses(t *testing.T) {
	res := Parallelize(analyzeSrc(t, progs.BitonicMerge, "root"), DefaultOptions)
	text := printer.Print(res.Prog)
	if !strings.Contains(text, "h.left := r || h.right := l") {
		t.Errorf("swap pair should fuse:\n%s", text)
	}
	if !strings.Contains(text, "bimerge(l) || bimerge(r)") {
		t.Errorf("recursion should fuse:\n%s", text)
	}
}

// TestListIncStaysSequential: no parallel statement in the chain walk.
func TestListIncStaysSequential(t *testing.T) {
	res := Parallelize(analyzeSrc(t, progs.ListIncrement, "cur"), DefaultOptions)
	if res.Stats.ParStatements != 0 {
		t.Errorf("list walk must stay sequential: %+v\n%s",
			res.Stats, printer.Print(res.Prog))
	}
}

// TestDagDemoSharedNodeWrites: in the DAG, a.left and b.left name the
// same node; value writes through the two aliases must not fuse (the
// alias function A of §5.1 catches them), while the edge installations
// themselves target distinct cells and may fuse.
func TestDagDemoSharedNodeWrites(t *testing.T) {
	src := progs.TreeDagDemo + "" // a.left := c; b.left := c; c.right := a
	info := analyzeSrc(t, src)
	res := Parallelize(info, DefaultOptions)
	text := printer.Print(res.Prog)
	// The installations write (a,left), (b,left), (c,right): disjoint
	// cells, so fusing them is sound (confirmed by the dynamic oracle in
	// the corpus equivalence test).
	if !strings.Contains(text, "||") {
		t.Errorf("dagdemo installations may fuse:\n%s", text)
	}
	// But writes through the two aliases of the shared node interfere.
	src2 := `
program aliaswrite
procedure main()
  a, b, c, t1, t2: handle
begin
  a := new();
  b := new();
  c := new();
  a.left := c;
  b.left := c;
  t1 := a.left;
  t2 := b.left;
  t1.value := 1;
  t2.value := 2
end;
`
	info2 := analyzeSrc(t, src2)
	res2 := Parallelize(info2, DefaultOptions)
	text2 := printer.Print(res2.Prog)
	if strings.Contains(text2, "t1.value := 1 || t2.value := 2") {
		t.Errorf("aliased value writes must not fuse:\n%s", text2)
	}
}

// TestMaxGroupBounds: the group width option is honored.
func TestMaxGroupBounds(t *testing.T) {
	src := `
program wide
procedure main()
  a, b, c, d: handle
begin
  a := new();
  b := new();
  c := new();
  d := new()
end;
`
	info := analyzeSrc(t, src)
	unbounded := Parallelize(info, DefaultOptions)
	if unbounded.Stats.Branches != 4 || unbounded.Stats.ParStatements != 1 {
		t.Errorf("unbounded: %+v", unbounded.Stats)
	}
	opts := DefaultOptions
	opts.MaxGroup = 2
	bounded := Parallelize(info, opts)
	if bounded.Stats.ParStatements != 2 || bounded.Stats.Branches != 4 {
		t.Errorf("bounded: %+v", bounded.Stats)
	}
}

// TestCtxPairFusesUnderContextSensitivity: in the ctxpair corpus program
// the fresh pair's value writes fuse because the analysis keeps the two
// bump call sites' contexts apart — a single merged summary re-imports the
// aliased-roots relation and blocks the fusion (the analysis package's
// TestCtxPairContextPrecision pins that merged-mode relation).
func TestCtxPairFusesUnderContextSensitivity(t *testing.T) {
	prog, err := progs.Compile(progs.CtxPair)
	if err != nil {
		t.Fatal(err)
	}
	info, err := analysis.Analyze(context.Background(), prog, analysis.Options{ExternalRoots: []string{"ra", "rb"}})
	if err != nil {
		t.Fatal(err)
	}
	res := Parallelize(info, DefaultOptions)
	if text := printer.Print(res.Prog); !strings.Contains(text, "x.value := 1 || y.value := 2") {
		t.Errorf("the fresh pair's writes should fuse:\n%s", text)
	}
	if res.Stats.ParStatements != 3 {
		t.Errorf("ctxpair should have 3 par statements, got %+v", res.Stats)
	}
}
