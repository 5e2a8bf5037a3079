package analysis

// Tests for the context-sensitive summary table (context.go): the ctxpair
// precision pin, mode subsumption (context-sensitive results never add
// coverage beyond merged mode), call-site edge cases (nil actuals,
// repeated actuals, non-VarRef actuals), and stacked-handle survival
// across a Space.Reset epoch.

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/sil/parser"
	"repro/internal/sil/types"
)

func analyzeMode(t *testing.T, src string, roots []string, merged bool) *Info {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{ExternalRoots: roots}
	if merged {
		opts = MergedOnly(opts)
	}
	info, err := Analyze(context.Background(), prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func mainExit(t *testing.T, info *Info) *matrix.Matrix {
	t.Helper()
	main := info.Prog.Proc("main")
	m := info.After[main.Body.Stmts[len(main.Body.Stmts)-1]]
	if m == nil {
		t.Fatal("no matrix at main exit")
	}
	return m
}

// TestCtxPairContextPrecision pins the acceptance criterion: on the
// ctxpair corpus program, context-sensitive mode drops the possible paths
// between the fresh pair that merged mode re-imports from the aliased-
// roots call — a strictly more precise result.
func TestCtxPairContextPrecision(t *testing.T) {
	roots := []string{"ra", "rb"}
	merged := mainExit(t, analyzeMode(t, progs.CtxPair, roots, true))
	ctx := mainExit(t, analyzeMode(t, progs.CtxPair, roots, false))
	// Sanity: the merged summary really does pollute the fresh pair —
	// otherwise this test would pass vacuously.
	if merged.Get("x", "y").IsEmpty() && merged.Get("y", "x").IsEmpty() {
		t.Fatalf("merged mode should relate x and y spuriously; got p[x,y]=%s p[y,x]=%s",
			merged.Get("x", "y"), merged.Get("y", "x"))
	}
	if !ctx.Get("x", "y").IsEmpty() || !ctx.Get("y", "x").IsEmpty() {
		t.Errorf("context-sensitive mode must keep the fresh pair unrelated: p[x,y]=%s p[y,x]=%s",
			ctx.Get("x", "y"), ctx.Get("y", "x"))
	}
	// bump really is analyzed under two distinct contexts.
	exact, hasMerged := analyzeMode(t, progs.CtxPair, roots, false).Summaries["bump"].ContextStats()
	if exact < 2 {
		t.Errorf("bump should keep 2 exact contexts, got %d (merged fallback: %v)", exact, hasMerged)
	}
}

// leqNil reports a ≤ b in the nil-ness precision lattice (MaybeNil top).
func leqNil(a, b matrix.Nilness) bool {
	return a == b || b == matrix.MaybeNil
}

// damageClass folds the maybe/definite split out of a shape verdict,
// leaving only the coverage axis (what damage the estimate admits).
func damageClass(s matrix.Shape) int {
	switch s {
	case matrix.ShapeTree:
		return 0
	case matrix.ShapeMaybeDAG, matrix.ShapeDAG:
		return 1
	default:
		return 2
	}
}

// subsumptionWords enumerates every edge word over l/r up to the given
// length — the bounded universe the entry-coverage check tests against
// (set-level language inclusion has no direct API, and per-path Subsumes
// is too strict: D+? is covered by the union {L+?, R+?, D+L1?, D+R1?}
// without any single member subsuming it).
func subsumptionWords(maxLen int) []string {
	words := []string{""}
	for start, l := 0, 1; l <= maxLen; l++ {
		end := len(words)
		for _, w := range words[start:end] {
			if len(w) == l-1 {
				words = append(words, w+"l", w+"r")
			}
		}
		start = end
	}
	return words[1:]
}

// entryCovered reports that every relationship sharp claims is also
// claimed by wide: S membership, and every concrete edge word up to the
// bound (flags ignored — maybe-vs-definite is a must-claim axis, not
// coverage).
func entryCovered(sharp, wide path.Set, words []string) bool {
	if sharp.HasSame() && !wide.HasSame() {
		return false
	}
	inSet := func(w string, s path.Set) bool {
		wp := wordPath(w)
		for _, p := range s.Paths() {
			if !p.IsSame() && path.MayOverlap(wp, p) {
				return true
			}
		}
		return false
	}
	for _, w := range words {
		if inSet(w, sharp) && !inSet(w, wide) {
			return false
		}
	}
	return true
}

// matrixCovered reports that sharp claims no relationship wide does not.
func matrixCovered(sharp, wide *matrix.Matrix, words []string) (string, bool) {
	for _, h := range sharp.Handles() {
		if !wide.Has(h) {
			return fmt.Sprintf("handle %s missing from merged-mode matrix", h), false
		}
		if !leqNil(sharp.Attr(h).Nil, wide.Attr(h).Nil) {
			return fmt.Sprintf("nilness of %s: %v not ≤ %v", h, sharp.Attr(h).Nil, wide.Attr(h).Nil), false
		}
		for _, g := range sharp.Handles() {
			if !entryCovered(sharp.Get(h, g), wide.Get(h, g), words) {
				return fmt.Sprintf("p[%s,%s]: %s not covered by %s", h, g, sharp.Get(h, g), wide.Get(h, g)), false
			}
		}
	}
	if damageClass(sharp.Shape()) > damageClass(wide.Shape()) {
		return fmt.Sprintf("shape %v exceeds merged-mode %v", sharp.Shape(), wide.Shape()), false
	}
	return "", true
}

// TestModePrecisionSubsumption: across the corpus and a batch of random
// programs, every program-point matrix of context-sensitive mode must be
// covered by the merged-mode matrix — context sensitivity may only drop
// possible relationships, never add them (and the separate soundness suite
// pins that what remains still covers the concrete executions).
func TestModePrecisionSubsumption(t *testing.T) {
	type target struct {
		name, src string
		roots     []string
	}
	var targets []target
	for _, e := range progs.Catalog {
		targets = append(targets, target{e.Name, e.Source, e.Roots})
	}
	for seed := int64(1); seed <= 25; seed++ {
		targets = append(targets, target{fmt.Sprintf("random-%d", seed), progs.RandomProgram(seed), nil})
	}
	words := subsumptionWords(5)
	for _, tgt := range targets {
		tgt := tgt
		t.Run(tgt.name, func(t *testing.T) {
			// One compiled program: the Before/After maps are keyed by
			// statement identity, so both modes must share the AST.
			prog, err := progs.Compile(tgt.src)
			if err != nil {
				t.Fatal(err)
			}
			mergedInfo, err := Analyze(context.Background(), prog, MergedOnly(Options{ExternalRoots: tgt.roots}))
			if err != nil {
				t.Fatal(err)
			}
			ctxInfo, err := Analyze(context.Background(), prog, Options{ExternalRoots: tgt.roots})
			if err != nil {
				t.Fatal(err)
			}
			for s, wide := range mergedInfo.After {
				sharp, ok := ctxInfo.After[s]
				if !ok {
					continue // point unreachable under the sharper analysis
				}
				if msg, ok := matrixCovered(sharp, wide, words); !ok {
					t.Errorf("%s: After matrix not subsumed: %s", tgt.name, msg)
				}
			}
			for s, sharp := range ctxInfo.After {
				if _, ok := mergedInfo.After[s]; !ok {
					t.Errorf("%s: point reachable in ctx mode but not merged mode", tgt.name)
					_ = sharp
				}
			}
		})
	}
}

// analyzeBasic analyzes a source that is already in basic form, skipping
// normalization — the path that presents literal nil actuals directly.
func analyzeBasic(t *testing.T, src string) *Info {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	info, err := Analyze(context.Background(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestNilActualBindsDefinitelyNil: f(nil) must bind the formal and h*1 as
// definitely nil with root indegree and no relations — not as an unknown
// handle. The unguarded dereference inside f is then a definite error, not
// a possible-nil warning.
func TestNilActualBindsDefinitelyNil(t *testing.T) {
	src := `
program nilarg
procedure main()
begin
  f(nil)
end;
procedure f(h: handle)
  v: int
begin
  v := h.value
end;
`
	info := analyzeBasic(t, src)
	if !hasDiag(info, "error", "dereference of definitely-nil handle h") {
		t.Errorf("f(nil) must make the dereference a definite error: %v", info.DiagStrings())
	}
	if hasDiag(info, "warn", "possible nil dereference") {
		t.Errorf("nil actual must not degrade to possible-nil: %v", info.DiagStrings())
	}
	ctxs := info.Summaries["f"].Contexts()
	if len(ctxs) == 0 {
		t.Fatal("no context for f")
	}
	ent := ctxs[0].Entry()
	for _, h := range []matrix.Handle{"h", matrix.Symbolic(1)} {
		if got := ent.Attr(h); got != (matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root}) {
			t.Errorf("entry attr of %s = %+v, want DefNil/Root", h, got)
		}
	}
	if !ent.Get("h", matrix.Symbolic(1)).IsEmpty() || !ent.Get(matrix.Symbolic(1), "h").IsEmpty() {
		t.Errorf("a nil actual must induce no relations: p[h,h*1]=%s p[h*1,h]=%s",
			ent.Get("h", matrix.Symbolic(1)), ent.Get(matrix.Symbolic(1), "h"))
	}
}

// TestNilActualThroughNormalization: the same program through the full
// pipeline (normalization hoists the nil into a temporary) reaches the
// same definite verdict.
func TestNilActualThroughNormalization(t *testing.T) {
	src := `
program nilarg2
procedure main()
begin
  f(nil)
end;
procedure f(h: handle)
  v: int
begin
  v := h.value
end;
`
	info := analyzeMode(t, src, nil, false)
	if !hasDiag(info, "error", "dereference of definitely-nil handle h") {
		t.Errorf("normalized f(nil) must still be a definite error: %v", info.DiagStrings())
	}
}

// TestSameActualPassedTwice: f(x, x) takes the actuals[i] == actuals[j]
// diagonal path — the two formals (and h*1, h*2) enter definitely aliased.
func TestSameActualPassedTwice(t *testing.T) {
	src := `
program twice
procedure main()
  x: handle; s: int
begin
  x := new();
  s := sum2(x, x)
end;
function sum2(a, b: handle): int
  s1, s2: int
begin
  if a <> nil then s1 := a.value;
  if b <> nil then s2 := b.value;
  s1 := s1 + s2
end
return (s1);
`
	info := analyzeMode(t, src, nil, false)
	ctxs := info.Summaries["sum2"].Contexts()
	if len(ctxs) == 0 {
		t.Fatal("no context for sum2")
	}
	ent := ctxs[0].Entry()
	for _, pair := range [][2]matrix.Handle{
		{"a", "b"},
		{matrix.Symbolic(1), matrix.Symbolic(2)},
		{"a", matrix.Symbolic(2)},
	} {
		if !ent.Get(pair[0], pair[1]).HasDefiniteSame() || !ent.Get(pair[1], pair[0]).HasDefiniteSame() {
			t.Errorf("same actual passed twice: p[%s,%s]=%s p[%s,%s]=%s want definite S both ways",
				pair[0], pair[1], ent.Get(pair[0], pair[1]), pair[1], pair[0], ent.Get(pair[1], pair[0]))
		}
	}
}

// TestNonVarRefActuals: a literal nil handle actual mixed with a compound
// int actual is basic and analyzes cleanly.
func TestNonVarRefActuals(t *testing.T) {
	src := `
program nonvar
procedure main()
  x: int
begin
  x := 1;
  p(nil, x + 1)
end;
procedure p(h: handle; n: int)
  v: int
begin
  if h <> nil then v := h.value
end;
`
	info := analyzeBasic(t, src)
	if len(info.Diags) != 0 {
		t.Errorf("guarded nil actual should produce no diagnostics: %v", info.DiagStrings())
	}
	ctxs := info.Summaries["p"].Contexts()
	if len(ctxs) == 0 {
		t.Fatal("no context for p")
	}
	if got := ctxs[0].Entry().Attr("h").Nil; got != matrix.DefNil {
		t.Errorf("nil actual entry nilness = %v, want DefNil", got)
	}
}

// TestStackedRelationsSurviveSpaceReset: the h**k relations of a recursive
// summary must be bit-identical when the same program is re-analyzed in a
// fresh Space epoch (interned IDs and fingerprints all change; the
// canonical rendering must not).
func TestStackedRelationsSurviveSpaceReset(t *testing.T) {
	capture := func() string {
		info := analyzeMode(t, progs.AddAndReverse, nil, false)
		ctxs := info.Summaries["add_n"].Contexts()
		fb := ctxs[len(ctxs)-1]
		if !fb.IsMerged() {
			t.Fatal("add_n is recursive and must have a merged fallback")
		}
		ent := fb.Entry()
		if !ent.Has(matrix.Stacked(1)) {
			t.Fatalf("add_n's merged entry must carry h**1; got %v", ent)
		}
		if ent.Get(matrix.Stacked(1), "h").IsEmpty() {
			t.Fatal("p[h**1,h] must be non-empty (stacked args are ancestors)")
		}
		return canonicalMatrix(ent)
	}
	before := capture()
	path.DefaultSpace().Reset()
	after := capture()
	if before != after {
		t.Errorf("stacked-handle relations diverged across a Space.Reset epoch:\n--- before\n%s--- after\n%s", before, after)
	}
}
