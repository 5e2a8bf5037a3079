package analysis

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/sil/ast"
	"repro/internal/sil/token"
)

// This file implements the analysis functions for the basic handle
// statements of §4. The rules are reconstructed from the paper's Figure 2
// and validated by the figure-replay tests:
//
//	a := nil      kill a; a becomes definitely nil
//	a := new()    kill a; fresh unrelated root node
//	a := b        kill a; copy b's row and column; p[a,b] gains S
//	a := b.f      kill a; ancestors of b extend by f; entries from b to
//	              other handles residuate by f (Figure 2(b,c))
//	a.f := b      structure update: cycle/DAG verification, kill of paths
//	              that may route through a's old f edge, closure of
//	              x→a·f·b→y paths
//	value forms   no shape effect; nil-dereference checks and mod-ref only
func dirOf(f ast.Field) path.Dir {
	if f == ast.Left {
		return path.LeftD
	}
	return path.RightD
}

// fieldName spells a link direction the way SIL programs do.
func fieldName(f path.Dir) string {
	if f == path.LeftD {
		return "left"
	}
	return "right"
}

// markWrite records that the current procedure writes through handle a
// (mod-ref analysis of §5.2): every handle parameter whose original node
// (h*k) may reach a is an update parameter. The flags are only ever
// staged for a round barrier — outside fixpoint mode (the recording pass,
// Replay) this is a no-op: the bits are already maximal at the fixpoint,
// and Replay in particular walks states the fixpoint never did (e.g. one
// branch of a candidate parallel pair in isolation), so applying its
// observations would corrupt the quiescent summaries.
func (a *analyzer) markWrite(m *matrix.Matrix, target matrix.Handle, link bool) {
	sum := a.currentSummary()
	if sum == nil || a.st == nil {
		return
	}
	if link {
		a.st.modifiesLinks = true
	}
	for symIdx, paramPos := range sum.HandleParamIdx {
		h := matrix.Symbolic(symIdx + 1)
		if !m.Has(h) {
			// The summary has not seen a call yet (first pass); fall back
			// to the formal name.
			h = matrix.Handle(a.cur.Params[paramPos].Name)
		}
		if h == target || !m.Get(h, target).IsEmpty() || m.MayAlias(h, target) {
			a.st.modUpdate = a.st.flagParam(a.st.modUpdate, paramPos)
			if link {
				a.st.modLink = a.st.flagParam(a.st.modLink, paramPos)
			}
		}
	}
}

// markAttach records that the current procedure may give the node of some
// handle parameter a new parent (the argument appears as the right side of
// a structure update). Staged only, like markWrite.
func (a *analyzer) markAttach(m *matrix.Matrix, src matrix.Handle) {
	sum := a.currentSummary()
	if sum == nil || a.st == nil {
		return
	}
	for symIdx, paramPos := range sum.HandleParamIdx {
		h := matrix.Symbolic(symIdx + 1)
		if !m.Has(h) {
			h = matrix.Handle(a.cur.Params[paramPos].Name)
		}
		if h == src || m.MayAlias(h, src) {
			a.st.modAttach = a.st.flagParam(a.st.modAttach, paramPos)
		}
	}
}

// checkDeref emits nil-dereference diagnostics for reading or writing
// through h, and refines h to non-nil afterwards (execution only continues
// if the dereference succeeded).
func (a *analyzer) checkDeref(m *matrix.Matrix, h matrix.Handle, pos token.Pos) {
	switch m.Attr(h).Nil {
	case matrix.DefNil:
		a.diag(pos, "error", fmt.Sprintf("dereference of definitely-nil handle %s", h))
	case matrix.MaybeNil:
		a.diag(pos, "warn", fmt.Sprintf("possible nil dereference of handle %s", h))
	}
	if at := m.Attr(h); m.Has(h) && at.Nil != NonNilConst {
		at.Nil = matrix.NonNil
		m.Add(h, at) // re-add restores the S diagonal
	}
}

// NonNilConst aliases matrix.NonNil for readability in checkDeref.
const NonNilConst = matrix.NonNil

// assign dispatches the basic assignment forms.
func (a *analyzer) assign(m *matrix.Matrix, s *ast.Assign) *matrix.Matrix {
	switch lhs := s.Lhs.(type) {
	case *ast.VarLV:
		v := a.cur.Lookup(lhs.Name)
		if v == nil {
			return m
		}
		if v.Type == ast.IntT {
			// x := <int expr> | x := f(args): scalar destination. Reads of
			// a.value are dereferences; calls have their own effects.
			if call, ok := s.Rhs.(*ast.CallExpr); ok {
				return a.call(m, call, call.Name, call.Args, nil)
			}
			a.scalarReads(m, s.Rhs)
			return m
		}
		return a.assignHandle(m, matrix.Handle(lhs.Name), s.Rhs)
	case *ast.FieldLV:
		base := matrix.Handle(lhs.Base)
		a.checkDeref(m, base, lhs.Pos())
		if lhs.Field == ast.Value {
			a.scalarReads(m, s.Rhs)
			a.markWrite(m, base, false)
			return m
		}
		a.markWrite(m, base, true)
		return a.update(m, base, dirOf(lhs.Field), s.Rhs, lhs.Pos())
	}
	return m
}

// scalarReads walks an int expression and checks value-field dereferences.
func (a *analyzer) scalarReads(m *matrix.Matrix, e ast.Expr) {
	switch e := e.(type) {
	case *ast.FieldRef:
		a.checkDeref(m, matrix.Handle(e.Base), e.Pos())
	case *ast.Unary:
		a.scalarReads(m, e.X)
	case *ast.Binary:
		a.scalarReads(m, e.X)
		a.scalarReads(m, e.Y)
	}
}

// assignHandle implements a := nil | new() | b | b.f | f(args).
func (a *analyzer) assignHandle(m *matrix.Matrix, dst matrix.Handle, rhs ast.Expr) *matrix.Matrix {
	switch rhs := rhs.(type) {
	case *ast.NilLit:
		m.Remove(dst)
		m.Add(dst, matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root})
		return m
	case *ast.NewExpr:
		m.Remove(dst)
		m.Add(dst, matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.Root})
		return m
	case *ast.VarRef:
		src := matrix.Handle(rhs.Name)
		if src == dst {
			return m
		}
		attr := m.Attr(src)
		// Copy src's row and column to dst, then relate them by S.
		rels := map[matrix.Handle][2]path.Set{}
		for _, x := range m.Handles() {
			if x == dst {
				continue
			}
			rels[x] = [2]path.Set{m.Get(x, src), m.Get(src, x)}
		}
		m.Remove(dst)
		m.Add(dst, attr)
		for x, rc := range rels {
			if x == src {
				continue
			}
			m.Put(x, dst, rc[0])
			m.Put(dst, x, rc[1])
		}
		if attr.Nil == matrix.NonNil {
			m.Put(dst, src, path.NewSet(path.Same()))
			m.Put(src, dst, path.NewSet(path.Same()))
		} else if attr.Nil == matrix.MaybeNil {
			m.Put(dst, src, path.NewSet(path.SamePossible()))
			m.Put(src, dst, path.NewSet(path.SamePossible()))
		}
		return m
	case *ast.FieldRef:
		return a.loadField(m, dst, matrix.Handle(rhs.Base), dirOf(rhs.Field), rhs.Pos())
	case *ast.CallExpr:
		return a.call(m, rhs, rhs.Name, rhs.Args, &dst)
	}
	return m
}

// loadField implements a := b.f — the rule of Figure 2. Handles a == b
// (e.g. l := l.left in Figure 3's loop) by reading b's relations first.
func (a *analyzer) loadField(m *matrix.Matrix, dst, src matrix.Handle, f path.Dir, pos token.Pos) *matrix.Matrix {
	a.checkDeref(m, src, pos)
	// Snapshot src's relations before killing dst (dst may equal src).
	type rel struct {
		toSrc, fromSrc path.Set
	}
	rels := map[matrix.Handle]rel{}
	for _, x := range m.Handles() {
		if x == dst {
			continue
		}
		rels[x] = rel{toSrc: m.Get(x, src), fromSrc: m.Get(src, x)}
	}
	m.Remove(dst)
	m.Add(dst, matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.Attached})
	for x, r := range rels {
		if x == dst {
			continue
		}
		// Ancestors and aliases of src: x→dst = (x→src)·f. The set may
		// contain S (aliases of src), so the extension names the engine's
		// Space explicitly.
		if !r.toSrc.IsEmpty() {
			m.Put(x, dst, a.eng.psp.ExtendAll(r.toSrc, f))
		}
		// Handles below src: dst→x = residue of (src→x) by f.
		if !r.fromSrc.IsEmpty() {
			res := r.fromSrc.Filter(func(p path.Path) bool { return !p.IsSame() }).ResidueAll(f)
			if !res.IsEmpty() {
				m.Put(dst, x, m.Get(dst, x).Union(res))
				// Aliasing is symmetric: an S (same node) member appears
				// in both cells, as in the paper's Figure 6 matrix.
				for _, p := range res.Paths() {
					if p.IsSame() {
						m.AddPaths(x, dst, path.NewSet(p))
					}
				}
			}
		}
	}
	if dst != src {
		// src→dst is exactly one f edge (Figure 2(b): d := a.right gives
		// a→d = R1, definite).
		m.Put(src, dst, m.Get(src, dst).Union(path.NewSet(a.eng.psp.New(path.Exact(f, 1)))))
	}
	// When dst == src (Figure 3's l := l.left) the old identity dies with
	// the kill; the ancestor extensions above already used the snapshot.
	return m
}

// update implements a.f := b (b a plain handle name or nil): the paper's
// structure-update rule with TREE/DAG verification.
func (a *analyzer) update(m *matrix.Matrix, base matrix.Handle, f path.Dir, rhs ast.Expr, pos token.Pos) *matrix.Matrix {
	// The overwritten edge's definite old target loses a parent. This is
	// what keeps the paper's reverse (§1's node swap) from accumulating
	// spurious permanent DAG verdicts: h.left := r detaches the old left
	// child, so the later h.right := l re-attaches a root, not a shared
	// node.
	for _, y := range m.Handles() {
		for _, p := range m.Get(base, y).Paths() {
			if p.Definite() && p.IsExactEdge(f) {
				at := m.Attr(y)
				switch at.Indeg {
				case matrix.Attached:
					at.Indeg = matrix.Root
				case matrix.Shared:
					at.Indeg = matrix.Attached
				}
				m.SetAttr(y, at)
			}
		}
	}
	// Kill: any path x→y that may route through a's old f edge can no
	// longer be definite.
	a.killThroughEdge(m, base, f)
	nilRHS := false
	var src matrix.Handle
	switch rhs := rhs.(type) {
	case *ast.NilLit:
		nilRHS = true
	case *ast.VarRef:
		src = matrix.Handle(rhs.Name)
		if m.Attr(src).Nil == matrix.DefNil {
			nilRHS = true
		}
	}
	if nilRHS {
		return m
	}

	// Structure verification (§3.1). Cycle: b at or below a.
	srcAttr := m.Attr(src)
	maybeNil := srcAttr.Nil == matrix.MaybeNil
	if toBase := m.Get(src, base); !toBase.IsEmpty() || src == base {
		definite := src == base || toBase.HasDefinite()
		if definite && !maybeNil {
			m.SetShape(matrix.ShapeCyclic)
			a.diag(pos, "error", fmt.Sprintf("%s.%s := %s creates a cycle: %s is a descendant of %s",
				base, fieldName(f), src, base, src))
		} else {
			m.SetShape(matrix.ShapeMaybeCyclic)
			a.diag(pos, "warn", fmt.Sprintf("%s.%s := %s may create a cycle", base, fieldName(f), src))
		}
	}
	// DAG: b may already have a parent. Known sharing lives in the Shared
	// attribute (recoverable when an edge is later overwritten — the
	// temporary DAG of §1's node swap); sharing through a handle of
	// unknown indegree is unrecoverable and goes to the sticky estimate.
	var newIndeg matrix.Indegree
	switch srcAttr.Indeg {
	case matrix.Root:
		newIndeg = matrix.Attached // first parent: still a tree
	case matrix.Attached, matrix.Shared:
		newIndeg = matrix.Shared
		if maybeNil {
			a.diag(pos, "warn", fmt.Sprintf("%s.%s := %s may create a DAG (node may already have a parent)", base, fieldName(f), src))
		} else {
			a.diag(pos, "warn", fmt.Sprintf("%s.%s := %s creates a DAG: node already has a parent", base, fieldName(f), src))
		}
	default:
		newIndeg = matrix.UnknownDeg
		m.SetShape(matrix.ShapeMaybeDAG)
		a.diag(pos, "warn", fmt.Sprintf("%s.%s := %s may create a DAG (unknown indegree)", base, fieldName(f), src))
	}
	// Keep every name of the attached node consistent: definite aliases
	// take the same indegree; possible aliases can no longer be trusted.
	m.SetAttr(src, matrix.Attr{Nil: srcAttr.Nil, Indeg: newIndeg})
	for _, y := range m.Handles() {
		if y == src {
			continue
		}
		to, from := m.Get(src, y), m.Get(y, src)
		at := m.Attr(y)
		switch {
		case to.HasDefiniteSame() || from.HasDefiniteSame():
			at.Indeg = newIndeg
			m.SetAttr(y, at)
		case to.HasSame() || from.HasSame():
			at.Indeg = matrix.UnknownDeg
			m.SetAttr(y, at)
		}
	}
	a.markAttach(m, src)

	// Gen: the new edge and its closure.
	edge := a.eng.psp.New(path.Exact(f, 1))
	if maybeNil {
		edge = edge.AsPossible()
	}
	edgeSet := path.NewSet(edge)

	// Snapshot before mutation.
	toBase := map[matrix.Handle]path.Set{}  // x → base (including aliases via S)
	fromSrc := map[matrix.Handle]path.Set{} // src → y
	for _, x := range m.Handles() {
		if s := m.Get(x, base); !s.IsEmpty() && x != base {
			toBase[x] = s
		}
		if s := m.Get(src, x); !s.IsEmpty() && x != src {
			fromSrc[x] = s
		}
	}

	// base → src gains f.
	m.AddPaths(base, src, edgeSet)
	// Ancestors/aliases of base reach src: x→src ∪= (x→base)·f.
	for x, s := range toBase {
		m.AddPaths(x, src, s.ConcatAll(edgeSet))
	}
	// base reaches what src reaches: base→y ∪= f·(src→y).
	for y, s := range fromSrc {
		if y == base {
			continue
		}
		m.AddPaths(base, y, edgeSet.ConcatAll(s))
	}
	// Full closure: x→y ∪= (x→base)·f·(src→y).
	for x, xs := range toBase {
		for y, ys := range fromSrc {
			if x == y || y == base {
				continue
			}
			m.AddPaths(x, y, xs.ConcatAll(edgeSet).ConcatAll(ys))
		}
	}
	m.Widen(a.eng.opts.Limits)
	return m
}

// killThroughEdge demotes every path that may pass through the f edge out
// of the node named by base: the edge is being overwritten, so such paths
// may no longer exist.
func (a *analyzer) killThroughEdge(m *matrix.Matrix, base matrix.Handle, f path.Dir) {
	for _, x := range m.Handles() {
		// Paths from x to base's node (S for x == base or aliases).
		var prefixes []path.Path
		if x == base {
			prefixes = append(prefixes, path.Same())
		}
		for _, p := range m.Get(x, base).Paths() {
			prefixes = append(prefixes, p)
		}
		if len(prefixes) == 0 {
			continue
		}
		for _, y := range m.Handles() {
			if y == base && x == base {
				continue
			}
			entry := m.Get(x, y)
			if entry.IsEmpty() {
				continue
			}
			demoted := entry.Demote(func(q path.Path) bool {
				if q.IsSame() {
					return false
				}
				for _, pre := range prefixes {
					if a.eng.psp.MayRouteThrough(q, pre, f) {
						return true
					}
				}
				return false
			})
			m.Put(x, y, demoted)
		}
	}
}
