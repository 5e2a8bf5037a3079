package analysis

// Epoch-reset equivalence: a long-lived service resets the process
// path.Space between analysis batches to bound the intern/memo tables.
// Resetting must be invisible in the results — analyzing the same corpus
// with the concurrent fixpoint (Workers > 1) before and after a Reset must
// produce bit-identical diagnostics, shapes, mod-ref bits, and matrices.
// The snapshot deliberately renders matrices through String() (handle
// names + paper path notation) rather than fingerprints: fingerprints
// incorporate interned IDs and are not comparable across epochs.
//
// This file runs under -race in CI: the batches exercise the shared
// tables from many workers right up to the reset boundary.

import (
	"context"

	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/progs"
)

// canonicalMatrix renders a matrix with handles sorted by name: summary
// matrices are built by concurrent merges, so their insertion order (what
// String() shows) is scheduling-dependent even though their content is
// deterministic — only a canonical rendering can be compared bit-for-bit
// across batches.
func canonicalMatrix(m *matrix.Matrix) string {
	hs := append([]matrix.Handle(nil), m.Handles()...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "shape=%s\n", m.Shape())
	for _, h := range hs {
		a := m.Attr(h)
		fmt.Fprintf(&b, "  %s[%s,%s]\n", h, a.Nil, a.Indeg)
	}
	for _, r := range hs {
		for _, c := range hs {
			if e := m.Get(r, c); !e.IsEmpty() {
				fmt.Fprintf(&b, "  %s->%s: %s\n", r, c, e)
			}
		}
	}
	return b.String()
}

// epochSnapshot renders every analysis output the pipeline consumes in an
// epoch-independent form.
func epochSnapshot(t *testing.T, src string, roots []string, workers int) string {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	info, err := Analyze(context.Background(), prog, Options{Workers: workers, ExternalRoots: roots})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shape=%s exit=%s\n", info.Shape(), info.ExitShape())
	for _, d := range info.DiagStrings() {
		b.WriteString("diag " + d + "\n")
	}
	for _, name := range sortedSummaryNames(info) {
		s := info.Summaries[name]
		fmt.Fprintf(&b, "proc %s mod=%v upd=%v link=%v attach=%v\n",
			name, s.ModifiesLinks, s.UpdateParams, s.LinkParams, s.AttachesParams)
		// Contexts() order is content-canonical (comparable across
		// epochs), but the full renderings are sorted here too so this
		// dump stands on its own.
		var ctxs []string
		for _, c := range s.Contexts() {
			r := "context"
			if c.IsMerged() {
				r = "merged-context"
			}
			r += "\nentry\n" + canonicalMatrix(c.Entry())
			if c.Exit() != nil {
				r += "exit\n" + canonicalMatrix(c.Exit())
			} else {
				r += "exit bottom\n"
			}
			ctxs = append(ctxs, r)
		}
		sort.Strings(ctxs)
		b.WriteString(strings.Join(ctxs, ""))
	}
	return b.String()
}

func TestEpochResetEquivalence(t *testing.T) {
	sp := path.DefaultSpace()
	batch := func() map[string]string {
		out := make(map[string]string, len(progs.Catalog)+8)
		for _, e := range progs.Catalog {
			out[e.Name] = epochSnapshot(t, e.Source, e.Roots, 4)
		}
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("random-%d", seed)
			out[name] = epochSnapshot(t, progs.RandomProgram(seed), nil, 4)
		}
		return out
	}

	ref := batch()
	if st := sp.Stats(); st.InternedPaths == 0 || st.Verdicts() == 0 {
		t.Fatalf("batch did not populate the space: %+v", st)
	}
	if matrix.DefaultSpace().InternedHandles() == 0 {
		t.Fatal("batch did not populate the handle table")
	}

	sp.Reset()
	st := sp.Stats()
	if st.InternedPaths != 0 || st.Verdicts() != 0 || st.ResidueEntries != 0 {
		t.Fatalf("Space.Reset must empty every table: %+v", st)
	}
	if matrix.DefaultSpace().InternedHandles() != 0 {
		t.Fatal("Space.Reset must cascade to the matrix handle table")
	}

	got := batch()
	for name, want := range ref {
		if got[name] != want {
			t.Errorf("%s: results diverged across an epoch reset:\n--- before reset\n%s--- after reset\n%s",
				name, want, got[name])
		}
	}

	// A second immediate reset (empty epoch) is fine too.
	sp.Reset()
	if got := epochSnapshot(t, progs.AddAndReverse, nil, 4); got != ref["add_and_reverse"] {
		t.Error("add_and_reverse diverged after a second reset")
	}
}
