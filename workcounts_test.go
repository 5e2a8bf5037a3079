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

// workCounts is the deterministic work one corpus program costs in one
// summary mode: fixpoint item analyses, the context-table statistics, and
// the parallelizer's counts. Unlike wall-clock time these are free of
// noise, so they gate exactly.
type workCounts struct {
	name  string
	mode  string // "context" (the default table) or "merged" (MaxContexts -1)
	steps int
	ctx   analysis.CtxTableStats
	par   par.Stats
}

// corpusWorkCounts pins every progs.Catalog program in both summary
// modes. A change that moves a count updates this table (the failing test
// prints the whole new one) and says why in CHANGES.md.
var corpusWorkCounts = []workCounts{
	{"add_and_reverse", "context", 37,
		analysis.CtxTableStats{Exact: 4, MergedProcs: 3, Evictions: 0, FallbacksActivated: 3, FallbackAnalyses: 24, ExitsShared: 0},
		par.Stats{ParStatements: 9, Branches: 21, LeafGroups: 9, SeqGroups: 0}},
	{"add_and_reverse", "merged", 36,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 4, Evictions: 0, FallbacksActivated: 4, FallbackAnalyses: 36, ExitsShared: 0},
		par.Stats{ParStatements: 9, Branches: 21, LeafGroups: 9, SeqGroups: 0}},
	{"treeadd", "context", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 0},
		par.Stats{ParStatements: 2, Branches: 5, LeafGroups: 2, SeqGroups: 0}},
	{"treeadd", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 2, Branches: 5, LeafGroups: 2, SeqGroups: 0}},
	{"treereverse", "context", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 3, SeqGroups: 0}},
	{"treereverse", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 3, SeqGroups: 0}},
	{"treesum", "context", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"treesum", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"bitonicmerge", "context", 13,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 0},
		par.Stats{ParStatements: 5, Branches: 10, LeafGroups: 5, SeqGroups: 0}},
	{"bitonicmerge", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 5, Branches: 10, LeafGroups: 5, SeqGroups: 0}},
	{"treecopy", "context", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"treecopy", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"mutualwalk", "context", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 9, ExitsShared: 0},
		par.Stats{ParStatements: 4, Branches: 10, LeafGroups: 4, SeqGroups: 0}},
	{"mutualwalk", "merged", 14,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 3, Evictions: 0, FallbacksActivated: 3, FallbackAnalyses: 14, ExitsShared: 0},
		par.Stats{ParStatements: 4, Branches: 10, LeafGroups: 4, SeqGroups: 0}},
	{"leftmost", "context", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbacksActivated: 0, FallbackAnalyses: 0, ExitsShared: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"leftmost", "merged", 1,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 1, ExitsShared: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"listinc", "context", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbacksActivated: 0, FallbackAnalyses: 0, ExitsShared: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"listinc", "merged", 1,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 1, ExitsShared: 0},
		par.Stats{ParStatements: 0, Branches: 0, LeafGroups: 0, SeqGroups: 0}},
	{"dagdemo", "context", 1,
		analysis.CtxTableStats{Exact: 1, MergedProcs: 0, Evictions: 0, FallbacksActivated: 0, FallbackAnalyses: 0, ExitsShared: 0},
		par.Stats{ParStatements: 2, Branches: 6, LeafGroups: 2, SeqGroups: 0}},
	{"dagdemo", "merged", 1,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 1, ExitsShared: 0},
		par.Stats{ParStatements: 2, Branches: 6, LeafGroups: 2, SeqGroups: 0}},
	{"ctxpair", "context", 6,
		analysis.CtxTableStats{Exact: 3, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 1, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 7, LeafGroups: 2, SeqGroups: 1}},
	{"ctxpair", "merged", 3,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 3, ExitsShared: 0},
		par.Stats{ParStatements: 2, Branches: 5, LeafGroups: 1, SeqGroups: 1}},
	{"shareread", "context", 14,
		analysis.CtxTableStats{Exact: 2, MergedProcs: 1, Evictions: 0, FallbacksActivated: 1, FallbackAnalyses: 8, ExitsShared: 1},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
	{"shareread", "merged", 16,
		analysis.CtxTableStats{Exact: 0, MergedProcs: 2, Evictions: 0, FallbacksActivated: 2, FallbackAnalyses: 16, ExitsShared: 0},
		par.Stats{ParStatements: 3, Branches: 6, LeafGroups: 1, SeqGroups: 2}},
}

// measureWorkCounts analyzes and parallelizes every corpus program in both
// modes, each on a fresh Space at Workers 1.
func measureWorkCounts(t *testing.T) []workCounts {
	t.Helper()
	var out []workCounts
	for _, e := range progs.Catalog {
		prog, err := progs.Compile(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, m := range []struct {
			mode        string
			maxContexts int
		}{{"context", 0}, {"merged", -1}} {
			info, err := analysis.Analyze(context.Background(), prog, analysis.Options{
				ExternalRoots: e.Roots,
				Workers:       1,
				MaxContexts:   m.maxContexts,
				Space:         matrix.NewSpace(path.NewSpace()),
			})
			if err != nil {
				t.Fatalf("%s (%s): %v", e.Name, m.mode, err)
			}
			out = append(out, workCounts{
				name:  e.Name,
				mode:  m.mode,
				steps: info.FixpointSteps,
				ctx:   info.ContextTableStats(),
				par:   par.Parallelize(info, par.DefaultOptions).Stats,
			})
		}
	}
	return out
}

// TestCorpusWorkCounts gates exactly on the corpus work counters. The
// merged mode's wall-clock cost stays measurable with
// `go test -bench CorpusAnalysisMerged .`.
func TestCorpusWorkCounts(t *testing.T) {
	got := measureWorkCounts(t)
	if slices.Equal(got, corpusWorkCounts) {
		return
	}
	want := map[string]workCounts{}
	for _, w := range corpusWorkCounts {
		want[w.name+"/"+w.mode] = w
	}
	for _, g := range got {
		w, ok := want[g.name+"/"+g.mode]
		switch {
		case !ok:
			t.Errorf("%s (%s): not pinned", g.name, g.mode)
		case g != w:
			t.Errorf("%s (%s):\n  got  %+v\n  want %+v", g.name, g.mode, g, w)
		}
	}
	if len(got) != len(corpusWorkCounts) {
		t.Errorf("measured %d rows, table pins %d", len(got), len(corpusWorkCounts))
	}
	var b strings.Builder
	b.WriteString("var corpusWorkCounts = []workCounts{\n")
	for _, g := range got {
		fmt.Fprintf(&b, "\t{%q, %q, %d,\n\t\t%#v,\n\t\t%#v},\n", g.name, g.mode, g.steps, g.ctx, g.par)
	}
	b.WriteString("}")
	t.Errorf("work counts moved; if the change is intended, replace the table with:\n%s", b.String())
}
