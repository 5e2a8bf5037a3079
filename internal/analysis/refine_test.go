package analysis

// Table-driven tests for condition refinement on handle-handle
// comparisons (refine.go): nil-ness must propagate across h = g in the
// true branch (a definitely-nil side forces the other nil; a definitely-
// non-nil side forces the other non-nil), and the false branch of h = g
// with one side definitely nil must mark the other non-nil.

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/sil/ast"
)

func refineMatrix(attrs map[matrix.Handle]matrix.Attr, rels map[[2]matrix.Handle]string) *matrix.Matrix {
	m := matrix.New()
	for _, h := range []matrix.Handle{"h", "g", "o"} {
		if a, ok := attrs[h]; ok {
			m.Add(h, a)
		}
	}
	for pair, set := range rels {
		m.Put(pair[0], pair[1], path.MustParseSet(set))
	}
	return m
}

func TestRefineComparisonNilness(t *testing.T) {
	var (
		defNil  = matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root}
		nonNil  = matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg}
		mayNil  = matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.Attached}
		hg      = [2]matrix.Handle{"h", "g"}
		gh      = [2]matrix.Handle{"g", "h"}
		og      = [2]matrix.Handle{"o", "g"}
		refineC = func(m *matrix.Matrix, equal bool) *matrix.Matrix {
			return refineComparison(m,
				&ast.VarRef{Name: "h"}, &ast.VarRef{Name: "g"}, equal)
		}
	)
	tests := []struct {
		name  string
		attrs map[matrix.Handle]matrix.Attr
		rels  map[[2]matrix.Handle]string
		equal bool
		check func(t *testing.T, m *matrix.Matrix)
	}{
		{
			name:  "equal/left-nil-forces-right-nil",
			attrs: map[matrix.Handle]matrix.Attr{"h": defNil, "g": mayNil, "o": nonNil},
			rels:  map[[2]matrix.Handle]string{og: "L1?"},
			equal: true,
			check: func(t *testing.T, m *matrix.Matrix) {
				if got := m.Attr("g"); got.Nil != matrix.DefNil || got.Indeg != matrix.Root {
					t.Errorf("g = %+v, want DefNil/Root", got)
				}
				if !m.Get("o", "g").IsEmpty() {
					t.Errorf("a nil handle keeps no relations: p[o,g]=%s", m.Get("o", "g"))
				}
			},
		},
		{
			name:  "equal/right-nil-forces-left-nil",
			attrs: map[matrix.Handle]matrix.Attr{"h": mayNil, "g": defNil},
			equal: true,
			check: func(t *testing.T, m *matrix.Matrix) {
				if got := m.Attr("h").Nil; got != matrix.DefNil {
					t.Errorf("h nilness = %v, want DefNil", got)
				}
			},
		},
		{
			name:  "equal/non-nil-propagates",
			attrs: map[matrix.Handle]matrix.Attr{"h": nonNil, "g": mayNil},
			equal: true,
			check: func(t *testing.T, m *matrix.Matrix) {
				if got := m.Attr("g").Nil; got != matrix.NonNil {
					t.Errorf("g nilness = %v, want NonNil", got)
				}
				if !m.Get("h", "g").HasDefiniteSame() || !m.Get("g", "h").HasDefiniteSame() {
					t.Errorf("equal handles must alias by definite S: %s / %s",
						m.Get("h", "g"), m.Get("g", "h"))
				}
			},
		},
		{
			name:  "equal/both-nil-unchanged",
			attrs: map[matrix.Handle]matrix.Attr{"h": defNil, "g": defNil},
			equal: true,
			check: func(t *testing.T, m *matrix.Matrix) {
				if m.Attr("h").Nil != matrix.DefNil || m.Attr("g").Nil != matrix.DefNil {
					t.Error("both handles stay definitely nil")
				}
				if !m.Get("h", "g").IsEmpty() {
					t.Errorf("no S between two nil handles: %s", m.Get("h", "g"))
				}
			},
		},
		{
			name:  "notequal/left-nil-forces-right-nonnil",
			attrs: map[matrix.Handle]matrix.Attr{"h": defNil, "g": mayNil},
			equal: false,
			check: func(t *testing.T, m *matrix.Matrix) {
				if got := m.Attr("g").Nil; got != matrix.NonNil {
					t.Errorf("g nilness = %v, want NonNil (h <> g with h = nil)", got)
				}
			},
		},
		{
			name:  "notequal/right-nil-forces-left-nonnil",
			attrs: map[matrix.Handle]matrix.Attr{"h": mayNil, "g": defNil},
			equal: false,
			check: func(t *testing.T, m *matrix.Matrix) {
				if got := m.Attr("h").Nil; got != matrix.NonNil {
					t.Errorf("h nilness = %v, want NonNil (h <> g with g = nil)", got)
				}
			},
		},
		{
			name:  "notequal/both-nil-no-refinement",
			attrs: map[matrix.Handle]matrix.Attr{"h": defNil, "g": defNil},
			equal: false,
			check: func(t *testing.T, m *matrix.Matrix) {
				// The branch is dead (nil <> nil is false); refining either
				// side to non-nil would be confusing even if vacuously sound.
				if m.Attr("h").Nil != matrix.DefNil || m.Attr("g").Nil != matrix.DefNil {
					t.Error("dead branch must not invent non-nil facts")
				}
			},
		},
		{
			name:  "notequal/drops-same-members",
			attrs: map[matrix.Handle]matrix.Attr{"h": nonNil, "g": mayNil},
			rels:  map[[2]matrix.Handle]string{hg: "S?, L1?", gh: "S?"},
			equal: false,
			check: func(t *testing.T, m *matrix.Matrix) {
				if m.Get("h", "g").HasSame() || m.Get("g", "h").HasSame() {
					t.Errorf("S members must not survive h <> g: %s / %s",
						m.Get("h", "g"), m.Get("g", "h"))
				}
				if m.Get("h", "g").IsEmpty() {
					t.Errorf("non-S members survive: %s", m.Get("h", "g"))
				}
				if m.Attr("g").Nil != matrix.MaybeNil {
					t.Errorf("no nil-ness fact without a definitely-nil side: %v", m.Attr("g").Nil)
				}
			},
		},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tc.check(t, refineC(refineMatrix(tc.attrs, tc.rels), tc.equal))
		})
	}
}

// TestRefineNilPropagationEndToEnd drives the refinement through a whole
// program: inside "if g = h" with h freshly assigned nil, reading g.value
// must be a definite nil-dereference error, and in the false branch of
// "if g = nil" chained with "if h = g", h inherits non-nil, suppressing
// the possible-nil warning.
func TestRefineNilPropagationEndToEnd(t *testing.T) {
	src := `
program refprop
procedure main()
  g, h, r: handle; v: int
begin
  r := new();
  g := r.left;
  h := nil;
  if g = h then
    v := g.value
end;
`
	info := analyzeMode(t, src, nil, false)
	if !hasDiag(info, "error", "dereference of definitely-nil handle g") {
		t.Errorf("g = h with h nil must make g.value a definite error: %v", info.DiagStrings())
	}

	src2 := `
program refprop2
procedure main()
  g, h, r: handle; v: int
begin
  r := new();
  g := r.left;
  h := r.right;
  if g <> nil then
    if h = g then
      v := h.value
end;
`
	info2 := analyzeMode(t, src2, nil, false)
	if hasDiag(info2, "warn", "possible nil dereference of handle h") {
		t.Errorf("h = g with g non-nil must suppress the possible-nil warning on h: %v", info2.DiagStrings())
	}
}
