package repro

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
)

// workCounts is the deterministic work one program costs: fixpoint item
// analyses, the context-table statistics, and the parallelizer's counts.
// Unlike wall-clock time these are free of noise, so they gate exactly.
type workCounts struct {
	name  string
	steps int
	ctx   analysis.CtxTableStats
	par   par.Stats
}

// corpusWorkCounts pins every progs.Catalog program and three call chains
// (k = 4, 8, 12, phase 0; 2k+1 exact contexts each). A change that moves a
// count updates this table (the failing test prints the whole new one)
// and says why in CHANGES.md.
var corpusWorkCounts = []workCounts{
	{"add_and_reverse", 37,
		analysis.CtxTableStats{Exact: 4, MergedProcs: 3, Evictions: 0, FallbackAnalyses: 24},
		par.Stats{ParStatements: 9, Branches: 21, LeafGroups: 9, SeqGroups: 0}},
	{"treeadd", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 2, Branches: 5, LeafGroups: 2, SeqGroups: 0}},
	{"treereverse", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 3, SeqGroups: 0}},
	{"treesum", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"bitonicmerge", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 5, Branches: 10, LeafGroups: 5, SeqGroups: 0}},
	{"treecopy", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"mutualwalk", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 2, Evictions: 0, FallbackAnalyses: 9},
		par.Stats{ParStatements: 4, Branches: 10, LeafGroups: 4, SeqGroups: 0}},
	{"leftmost", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbackAnalyses: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"listinc", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbackAnalyses: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"dagdemo", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbackAnalyses: 0},
		par.Stats{ParStatements: 2, Branches: 6, LeafGroups: 2, SeqGroups: 0}},
	{"ctxpair", 5,
		analysis.CtxTableStats{Exact: 3, MergedProcs: 0, Evictions: 0, FallbackAnalyses: 0},
		par.Stats{ParStatements: 3, Branches: 7, LeafGroups: 2, SeqGroups: 1}},
	{"shareread", 14,
		analysis.CtxTableStats{Exact: 3, MergedProcs: 1, Evictions: 0, FallbackAnalyses: 8},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"chain4", 36,
		analysis.CtxTableStats{Exact: 9, MergedProcs: 2, Evictions: 0, FallbackAnalyses: 9},
		par.Stats{ParStatements: 12, Branches: 30, LeafGroups: 12, SeqGroups: 0}},
	{"chain8", 69,
		analysis.CtxTableStats{Exact: 17, MergedProcs: 2, Evictions: 0, FallbackAnalyses: 9},
		par.Stats{ParStatements: 21, Branches: 52, LeafGroups: 21, SeqGroups: 0}},
	{"chain12", 102,
		analysis.CtxTableStats{Exact: 25, MergedProcs: 2, Evictions: 0, FallbackAnalyses: 9},
		par.Stats{ParStatements: 31, Branches: 76, LeafGroups: 31, SeqGroups: 0}},
}

// chainSource is the chain-scale program shape of the bench module's
// generator (bench/gen.go): main calls wk on an external tree and even;
// wi calls w(i-1) on both children; the mutually recursive even/odd pair
// walks the tree; wi with (i+phase)%3 == 0 swaps its children. incs holds
// k+2 value increments. Keyed by call site the chain has 2k+1 contexts.
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

// workCountPrograms lists the measured programs: the corpus, then the
// chains.
func workCountPrograms() []progs.Entry {
	out := append([]progs.Entry(nil), progs.Catalog...)
	for _, k := range []int{4, 8, 12} {
		incs := make([]int, k+2)
		for i := range incs {
			incs[i] = i + 1
		}
		name := fmt.Sprintf("chain%d", k)
		out = append(out, progs.Entry{Name: name, Source: chainSource(name, k, 0, incs), Roots: []string{"root"}})
	}
	return out
}

// measureWorkCounts analyzes and parallelizes every program, each on a
// fresh Space at Workers 1.
func measureWorkCounts(t *testing.T) []workCounts {
	t.Helper()
	var out []workCounts
	for _, e := range workCountPrograms() {
		prog, err := progs.Compile(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		info, err := analysis.Analyze(context.Background(), prog, analysis.Options{
			ExternalRoots: e.Roots,
			Workers:       1,
			Space:         matrix.NewSpace(path.NewSpace()),
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out = append(out, workCounts{
			name:  e.Name,
			steps: info.FixpointSteps,
			ctx:   info.ContextTableStats(),
			par:   par.Parallelize(info, par.DefaultOptions).Stats,
		})
	}
	return out
}

// TestCorpusWorkCounts gates exactly on the work counters.
func TestCorpusWorkCounts(t *testing.T) {
	got := measureWorkCounts(t)
	if slices.Equal(got, corpusWorkCounts) {
		return
	}
	want := map[string]workCounts{}
	for _, w := range corpusWorkCounts {
		want[w.name] = w
	}
	for _, g := range got {
		w, ok := want[g.name]
		switch {
		case !ok:
			t.Errorf("%s: not pinned", g.name)
		case g != w:
			t.Errorf("%s:\n  got  %+v\n  want %+v", g.name, g, w)
		}
	}
	if len(got) != len(corpusWorkCounts) {
		t.Errorf("measured %d rows, table pins %d", len(got), len(corpusWorkCounts))
	}
	var b strings.Builder
	b.WriteString("var corpusWorkCounts = []workCounts{\n")
	for _, g := range got {
		fmt.Fprintf(&b, "\t{%q, %d,\n\t\t%#v,\n\t\t%#v},\n", g.name, g.steps, g.ctx, g.par)
	}
	b.WriteString("}")
	t.Errorf("work counts moved; if the change is intended, replace the table with:\n%s", b.String())
}
