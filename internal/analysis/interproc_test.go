package analysis

// Interprocedural stress tests beyond the Figure 7 replay: function
// results, mutual recursion, and call-effect mapping.

import (
	"context"

	"testing"

	"repro/internal/matrix"
	"repro/internal/progs"
)

func analyzeCorpus(t *testing.T, src string, roots ...string) *Info {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: roots})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestTreeCopyReturnMapping: the clone returned by copy(root) must be
// unrelated to the original tree — fresh nodes only.
func TestTreeCopyReturnMapping(t *testing.T) {
	info := analyzeCorpus(t, progs.TreeCopy, "root")
	main := info.Prog.Proc("main")
	last := main.Body.Stmts[len(main.Body.Stmts)-1]
	m := info.After[last]
	if m == nil {
		t.Fatal("no exit matrix")
	}
	if !m.Get("root", "twin").IsEmpty() || !m.Get("twin", "root").IsEmpty() {
		t.Errorf("twin should be unrelated to root: root→twin=%s twin→root=%s",
			m.Get("root", "twin"), m.Get("twin", "root"))
	}
	sum := info.Summaries["copy"]
	if sum == nil {
		t.Fatal("no summary for copy")
	}
	if !sum.ReadOnlyParam(0) {
		t.Error("copy only reads its argument")
	}
	if !sum.ModifiesLinks {
		t.Error("copy builds structure (links fresh nodes)")
	}
	if sum.LinkParams[0] {
		t.Error("copy never updates through its parameter")
	}
}

// TestMutualRecursionConverges: the even/odd walker's summaries reach a
// fixpoint and classify both handle parameters as update (value writes).
func TestMutualRecursionConverges(t *testing.T) {
	info := analyzeCorpus(t, progs.MutualWalk, "root")
	for _, name := range []string{"even", "odd"} {
		sum := info.Summaries[name]
		if sum == nil {
			t.Fatalf("no summary for %s", name)
		}
		if !sum.UpdateParams[0] {
			t.Errorf("%s writes values through its parameter", name)
		}
		if sum.ModifiesLinks {
			t.Errorf("%s modifies no links", name)
		}
		if ctxs := sum.Contexts(); ctxs[len(ctxs)-1].Exit() == nil {
			t.Errorf("%s has no exit matrix", name)
		}
	}
	// The recursive call pair inside even stays independent.
	callA := findCall(info.Prog, "even", "odd", 0)
	if callA == nil {
		t.Fatal("no odd call in even")
	}
	m := info.Before[callA]
	if m == nil {
		t.Fatal("no matrix before odd(l)")
	}
	if m.Related("l", "r") {
		t.Errorf("l and r must be unrelated in mutual recursion: %s / %s",
			m.Get("l", "r"), m.Get("r", "l"))
	}
	if m.Shape() != matrix.ShapeTree {
		t.Errorf("shape = %v", m.Shape())
	}
}

// TestLeftmostLoopMatrixShape: the workload version of Figure 3.
func TestLeftmostLoopMatrixShape(t *testing.T) {
	info := analyzeCorpus(t, progs.LeftmostMax, "root")
	w := findWhile(info.Prog, "main", 0)
	if w == nil {
		t.Fatal("no while")
	}
	after := info.After[w]
	got := after.Get("root", "cur").String()
	if got != "S?, L+?" {
		t.Errorf("root→cur = %q, want S?, L+?", got)
	}
}

// TestExternalRootsAreRelatedPairwise: two external roots may overlap, so
// updating through one must be seen as possibly affecting the other.
func TestExternalRootsAreRelatedPairwise(t *testing.T) {
	src := `
program tworoots
procedure main()
  ra, rb: handle
begin
  if ra <> nil then ra.value := 1
end;
`
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{ExternalRoots: []string{"ra", "rb"}})
	if err != nil {
		t.Fatal(err)
	}
	main := info.Prog.Proc("main")
	m := info.Before[main.Body.Stmts[0]]
	if m.Get("ra", "rb").IsEmpty() || m.Get("rb", "ra").IsEmpty() {
		t.Error("external roots must be pairwise possibly related")
	}
	if m.Attr("ra").Nil != matrix.MaybeNil {
		t.Errorf("external root nilness = %v, want maybe", m.Attr("ra").Nil)
	}
	if m.Attr("ra").Indeg != matrix.UnknownDeg {
		t.Errorf("external root indegree = %v, want unknown", m.Attr("ra").Indeg)
	}
}

// TestCallEffectHavocOnRelatedHandles: after a structure-modifying call,
// a caller handle inside the modified region is demoted to possible and
// re-covered.
func TestCallEffectHavocOnRelatedHandles(t *testing.T) {
	src := `
program havoc
procedure main()
  root, kid: handle
begin
  root := new();
  kid := new();
  root.left := kid;
  shake(root)
end;
procedure shake(h: handle)
  l: handle
begin
  if h <> nil then
  begin
    l := h.left;
    h.left := nil;
    h.right := l
  end
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
	main := info.Prog.Proc("main")
	last := main.Body.Stmts[len(main.Body.Stmts)-1]
	m := info.After[last]
	entry := m.Get("root", "kid")
	if entry.IsEmpty() {
		t.Fatal("kid should still be possibly below root")
	}
	// The definite L1 must be gone: shake moved kid to the right side.
	for _, p := range entry.Paths() {
		if p.Definite() {
			t.Errorf("no definite path may survive the call: %s", entry)
		}
	}
}
