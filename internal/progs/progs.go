// Package progs is the SIL program corpus: the paper's Figure 7 program,
// the adaptive-bitonic-sort-style tree kernel of §6, and the tree/list
// workloads used by the examples, tests and benchmarks. It also provides
// compilation and workload-setup helpers and a random-program generator
// for the soundness property tests.
package progs

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/sil/ast"
	"repro/internal/sil/parser"
	"repro/internal/sil/types"
)

// AddAndReverse is the paper's Figure 7 program verbatim, with the
// "... build a tree at root ..." comment realized by the build procedure.
// The tree depth is fixed in-source; use TreeAdd/TreeReverse with a Setup
// for parameterized depths.
const AddAndReverse = `
program add_and_reverse
procedure main()
  root, lside, rside: handle; i: int
begin
  root := new();
  build(root, 5);
  lside := root.left;
  rside := root.right;
  add_n(lside, 1);
  add_n(rside, -1);
  reverse(root)
end;
procedure build(h: handle; d: int)
  l, r: handle
begin
  if d > 0 then
  begin
    l := new();
    r := new();
    h.left := l;
    h.right := r;
    build(l, d - 1);
    build(r, d - 1)
  end
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

// TreeAdd applies add_n to an externally built tree (root comes from the
// Setup): the paper's update workload, parameterizable in depth.
const TreeAdd = `
program treeadd
procedure main()
  root: handle
begin
  add_n(root, 1)
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
`

// TreeReverse mirrors an externally built tree: the paper's structure-
// modifying workload.
const TreeReverse = `
program treereverse
procedure main()
  root: handle
begin
  reverse(root)
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

// TreeSum is the read-only workload: the §5.2 refinement classifies its
// parameter read-only, so even same-argument calls parallelize.
const TreeSum = `
program treesum
procedure main()
  root: handle; total, t1, t2: int
begin
  t1 := sum(root);
  t2 := sum(root);
  total := t1 + t2
end;
function sum(h: handle): int
  s, a, b: int; l, r: handle
begin
  if h = nil then s := 0
  else
  begin
    l := h.left;
    r := h.right;
    a := sum(l);
    b := sum(r);
    s := h.value + a + b
  end
end
return (s);
`

// BitonicMerge is the §6 case study in SIL form: the Bilardi–Nicolau
// adaptive bitonic sort works on bitonic trees with conditional subtree
// swaps; this kernel performs the per-level compare-exchange (value
// compare, conditional subtree swap) followed by recursive descent into
// both halves — the access/update pattern the paper reports analyzing
// "resulting in significant parallelism detection". SIL has no arrays
// (Figure 1), so this tree formulation replaces the array variant; the
// recursion and swap structure is the part the analysis must prove
// independent, and it is preserved exactly.
const BitonicMerge = `
program bitonicmerge
procedure main()
  root: handle
begin
  bimerge(root)
end;
procedure bimerge(h: handle)
  l, r: handle; a, b: int
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    if l <> nil then
      if r <> nil then
      begin
        a := l.value;
        b := r.value;
        if a > b then
        begin
          h.left := r;
          h.right := l
        end
      end;
    l := h.left;
    r := h.right;
    bimerge(l);
    bimerge(r)
  end
end;
`

// TreeCopy clones an external tree through a handle-returning function —
// the corpus program exercising function-result mapping across calls. The
// two recursive copies are independent, and the fresh nodes are provably
// unrelated to everything else.
const TreeCopy = `
program treecopy
procedure main()
  root, twin: handle
begin
  twin := copy(root)
end;
function copy(h: handle): handle
  c, l, r: handle
begin
  if h <> nil then
  begin
    c := new();
    c.value := h.value;
    l := copy(h.left);
    r := copy(h.right);
    c.left := l;
    c.right := r
  end
end
return (c);
`

// MutualWalk walks a tree with two mutually recursive procedures (even
// and odd levels apply different increments) — the mutual-recursion
// stress for the summary fixpoint.
const MutualWalk = `
program mutualwalk
procedure main()
  root: handle
begin
  even(root)
end;
procedure even(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + 2;
    l := h.left;
    r := h.right;
    odd(l);
    odd(r)
  end
end;
procedure odd(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + 1;
    l := h.left;
    r := h.right;
    even(l);
    even(r)
  end
end;
`

// LeftmostMax walks the left spine with a while loop and then reads a
// value — the Figure 3 pattern embedded in a runnable workload.
const LeftmostMax = `
program leftmost
procedure main()
  root, cur: handle; best: int
begin
  cur := root;
  if cur <> nil then
  begin
    best := cur.value;
    while cur.left <> nil do
    begin
      cur := cur.left;
      if cur.value > best then best := cur.value
    end
  end
end;
`

// ListIncrement walks a left-spine list adding one to every value: the
// negative control — the analysis finds no parallelism in a linear chain,
// so the parallelized program's speedup stays at 1.
const ListIncrement = `
program listinc
procedure main()
  cur: handle
begin
  while cur <> nil do
  begin
    cur.value := cur.value + 1;
    cur := cur.left
  end
end;
`

// TreeDagDemo deliberately builds a DAG and then a cycle — the structure
// verification showcase (§3.1).
const TreeDagDemo = `
program dagdemo
procedure main()
  a, b, c: handle
begin
  a := new();
  b := new();
  c := new();
  a.left := c;
  b.left := c;
  c.right := a
end;
`

// CtxPair is the context-sensitivity showcase: bump is called once on two
// externally built roots (which the environment may have aliased) and once
// on two fresh, provably unrelated nodes. A merged (context-insensitive)
// summary joins both entries, so bump's exit re-imports the aliased
// context's S?/D+? relation between its h* argument nodes into the fresh
// call — x and y end up spuriously related and their value writes cannot
// fuse. Context-sensitive summaries keep the two entry fingerprints apart:
// in the fresh context x and y stay unrelated, a strictly more precise
// result.
const CtxPair = `
program ctxpair
procedure main()
  ra, rb, x, y: handle
begin
  bump(ra, rb);
  x := new();
  y := new();
  bump(x, y);
  x.value := 1;
  y.value := 2
end;
procedure bump(a, b: handle)
begin
  if a <> nil then
    a.left := nil;
  if b <> nil then
    b.value := 0
end;
`

// ShareRead calls the read-only recursive function depth first on an
// externally built tree (a maybe-nil, unknown-indegree entry) and then on
// a freshly allocated node, whose entry — definitely non-nil, root
// indegree — is covered by the first one. Each call site gets its own
// context, so the second call is analyzed from its own, sharper entry.
const ShareRead = `
program shareread
procedure main()
  root, x: handle; d1, d2: int
begin
  d1 := depth(root);
  x := new();
  d2 := depth(x)
end;
function depth(t: handle): int
  l, r: handle; dl, dr: int
begin
  if t <> nil then
  begin
    l := t.left;
    r := t.right;
    dl := depth(l);
    dr := depth(r);
    if dl < dr then
      dr := dl;
    dl := dr + 1
  end
end
return (dl);
`

// Entry describes one corpus program.
type Entry struct {
	Name   string
	Source string
	// NeedsTree reports that main expects Setup to provide a structure.
	NeedsTree bool
	// Roots names the main locals a Setup binds (passed to the analysis as
	// analysis.Options.ExternalRoots so it treats them as unknown trees).
	Roots []string
	About string
}

// Catalog lists the corpus for the experiment driver.
var Catalog = []Entry{
	{"add_and_reverse", AddAndReverse, false, nil, "Figure 7/8 program (builds its own depth-5 tree)"},
	{"treeadd", TreeAdd, true, []string{"root"}, "value update over an external tree (E-SP1)"},
	{"treereverse", TreeReverse, true, []string{"root"}, "structure reversal over an external tree (E-SP1)"},
	{"treesum", TreeSum, true, []string{"root"}, "read-only double traversal (§5.2 refinement)"},
	{"bitonicmerge", BitonicMerge, true, []string{"root"}, "§6 adaptive-bitonic-style tree merge (E-S6)"},
	{"treecopy", TreeCopy, true, []string{"root"}, "tree clone via handle-returning function"},
	{"mutualwalk", MutualWalk, true, []string{"root"}, "mutually recursive even/odd walk"},
	{"leftmost", LeftmostMax, true, []string{"root"}, "Figure 3's spine walk as a workload"},
	{"listinc", ListIncrement, true, []string{"cur"}, "linear list walk — no parallelism (negative control)"},
	{"dagdemo", TreeDagDemo, false, nil, "DAG and cycle creation for structure verification"},
	{"ctxpair", CtxPair, false, []string{"ra", "rb"}, "context-sensitivity demo: aliased-roots call vs fresh-pair call"},
	{"shareread", ShareRead, true, []string{"root"}, "two call sites of a read-only recursive function: external tree, then fresh node"},
}

// Compile parses, checks and normalizes a corpus source.
func Compile(src string) (*ast.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("progs: %w", err)
	}
	if err := types.Check(prog); err != nil {
		return nil, fmt.Errorf("progs: %w", err)
	}
	types.Normalize(prog)
	return prog, nil
}

// MustCompile panics on error (fixtures).
func MustCompile(src string) *ast.Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// BalancedTreeSetup binds main's root to a fresh balanced tree of the
// given depth.
func BalancedTreeSetup(depth int) func(h *heap.Heap, env map[string]interp.Value) {
	return func(h *heap.Heap, env map[string]interp.Value) {
		env["root"] = interp.HandleV(h.BuildBalanced(depth, 1))
	}
}

// ListSetup binds main's cur to a fresh list of n nodes.
func ListSetup(n int) func(h *heap.Heap, env map[string]interp.Value) {
	return func(h *heap.Heap, env map[string]interp.Value) {
		env["cur"] = interp.HandleV(h.BuildList(n))
	}
}

// BitonicTreeSetup builds a depth-d tree whose values form a bitonic-ish
// sequence (ascending left spine, descending right spine), the natural
// input for BitonicMerge.
func BitonicTreeSetup(depth int) func(h *heap.Heap, env map[string]interp.Value) {
	return func(h *heap.Heap, env map[string]interp.Value) {
		var build func(d int, lo, hi int64, up bool) heap.NodeID
		build = func(d int, lo, hi int64, up bool) heap.NodeID {
			id := h.Alloc()
			mid := (lo + hi) / 2
			if up {
				_ = h.SetValue(id, lo)
			} else {
				_ = h.SetValue(id, hi)
			}
			if d > 0 {
				l := build(d-1, lo, mid, up)
				r := build(d-1, mid+1, hi, !up)
				_ = h.SetLink(id, heap.Left, l)
				_ = h.SetLink(id, heap.Right, r)
			}
			return id
		}
		env["root"] = interp.HandleV(build(depth, 0, 1<<uint(depth+1), true))
	}
}
