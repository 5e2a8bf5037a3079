package analysis

import (
	"strconv"
	"strings"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/sil/ast"
)

// This file implements the interprocedural analysis of §5.2 / Figure 7.
//
// At a call f(a1, …, an), the callee is analyzed against an entry matrix
// over three groups of handles (the paper's grouping for pB):
//
//	formals   — the callee's handle parameters, bound to the actuals;
//	h*i       — symbolic names for the caller's actual argument nodes
//	            (the formals may be reassigned; h*i always names the node
//	            that was passed);
//	h**i      — symbolic names collecting every stacked argument from
//	            outer recursive invocations: the caller's own h*i and h**i
//	            fold into the callee's h**i.
//
// Summaries are per-procedure context tables (context.go) with one context
// per call site: a call on a fresh tree is not polluted by a call on
// aliased roots elsewhere in the program (the paper's single pB
// "summarizes all possible relationships … for the recursive calls of
// add_n" — the merged fallback context reproduces exactly that view, and
// same-SCC calls bind it). In fixpoint mode a call resolves against the
// frozen table (callSite.resolveFrozen) and the presentation is staged for
// the barrier, which rebinds the site; the recording pass and Replay
// resolve by site, read-only (resolveRecorded). The round-based engine
// (analysis.go) iterates (procedure, context) items until entries, exits
// and mod-ref bits stabilize; mod-ref stays per-procedure, joined over
// contexts.
//
// On return the caller maps the exit matrix back: relations among actuals
// are replaced by the exit's h* relations; when the callee may update
// links, every caller path into an update argument's region is demoted and
// re-covered by D+? (the region rule — callees reach only nodes below
// their arguments, so all structural damage is confined there).

// symIndex parses the position of a symbolic handle ("h*2" → 2, false;
// "h**3" → 3, true).
func symIndex(h matrix.Handle) (idx int, stacked, ok bool) {
	s := string(h)
	if !strings.HasPrefix(s, "h*") {
		return 0, false, false
	}
	s = s[2:]
	if strings.HasPrefix(s, "*") {
		stacked = true
		s = s[1:]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, false, false
	}
	return n, stacked, true
}

// call analyzes one call statement or call expression; node is the call's
// AST node, which keys its call site. dst, when non-nil, receives a
// handle-typed function result. Returns nil (bottom) while the callee has
// no computed exit yet (first iterations of recursion).
func (a *analyzer) call(m *matrix.Matrix, node ast.Node, name string, args []ast.Expr, dst *matrix.Handle) *matrix.Matrix {
	callee := a.eng.prog.Proc(name)
	if callee == nil {
		return m
	}

	// Handle actuals in handle-parameter order. Normalization produces
	// plain names; a literal nil is also basic and binds the formal to no
	// node at all (nilArg), not to an unknown handle.
	hIdx := handleParams(callee)
	actuals := make([]matrix.Handle, len(hIdx))
	nilArg := make([]bool, len(hIdx))
	for k, pi := range hIdx {
		switch v := args[pi].(type) {
		case *ast.VarRef:
			actuals[k] = matrix.Handle(v.Name)
		case *ast.NilLit:
			nilArg[k] = true
		}
	}
	ent := a.buildEntry(m, callee, actuals, nilArg)
	var sum *Summary
	if a.st != nil {
		sum = a.eng.summaryFor(callee)
	} else {
		// Recording pass and Replay run against a quiescent Info that may be
		// shared by concurrent readers: they must not create summaries (the
		// old summaryFor call here mutated Info.Summaries, a data race under
		// concurrent Replay). A missing summary means the fixpoint never
		// analyzed any call to this procedure — the call site is unreachable
		// in the converged approximation, so the point after it is bottom.
		if sum = a.eng.summary(name); sum == nil {
			return nil
		}
	}
	// Same-SCC calls (self or mutual recursion) bind the merged fallback
	// context: recursion is summarized, as in the paper's pB (context.go).
	recursive := a.eng.opts.mergedOnly || a.eng.sameSCC(a.cur.Name, name)
	var ctx *ProcContext
	if a.st != nil {
		// Fixpoint mode: resolve against the frozen table and stage the
		// presentation; the round barrier rebinds the site and re-runs the
		// affected items.
		se := stagedEntry{callee: name, ent: ent, caller: a.curItem}
		if recursive {
			ctx = sum.fallback()
		} else {
			se.site = a.eng.info.sites[node]
			ctx = se.site.resolveFrozen(sum, ent)
		}
		se.seen = ctx
		a.st.entries = append(a.st.entries, se)
	} else {
		// Recording pass and Replay: resolution by site against the
		// converged tables.
		ctx = a.eng.resolveRecorded(sum, node, ent, recursive, a.curItem, a.sink != nil)
		if ctx != nil && a.onCall != nil {
			a.onCall(item{name, ctx})
		}
	}

	// Propagate mod-ref through the call (snapshot the callee's bits once;
	// they are frozen for the duration of a round). Staged only: outside
	// fixpoint mode the summaries are quiescent and must stay untouched.
	mr := sum.modrefSnapshot()
	if mr.modifiesLinks && a.st != nil {
		a.st.modifiesLinks = true
	}
	for k, pi := range hIdx {
		if actuals[k] == "" {
			continue
		}
		if mr.update[pi] {
			a.markWrite(m, actuals[k], mr.links[pi])
		}
		if mr.attaches[pi] {
			a.markAttach(m, actuals[k])
		}
	}

	var E *matrix.Matrix
	if ctx != nil {
		E = sum.ctxExit(ctx)
	}
	if E == nil {
		return nil // bottom: callee never returns in the current approximation
	}
	a.applyExit(m, E, sum.HandleParamIdx, mr, actuals, dst, callee)
	m.Widen(a.eng.opts.Limits)
	return m
}

// buildEntry constructs the callee entry matrix from the caller's matrix.
func (a *analyzer) buildEntry(m *matrix.Matrix, callee *ast.ProcDecl, actuals []matrix.Handle, nilArg []bool) *matrix.Matrix {
	ent := matrix.NewIn(a.eng.msp)
	ent.ResetShape(m.Shape())
	hIdx := handleParams(callee)
	formals := make([]matrix.Handle, len(hIdx))
	for k, pi := range hIdx {
		formals[k] = matrix.Handle(callee.Params[pi].Name)
	}
	attrOf := func(k int) matrix.Attr {
		if nilArg[k] {
			// A literal nil actual binds the formal (and h*k) to no node:
			// definitely nil with root indegree and no relations — not to
			// an unknown handle, which would drown the callee in
			// possible-nil, unknown-indegree noise.
			return matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root}
		}
		if actuals[k] == "" || !m.Has(actuals[k]) {
			return matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.UnknownDeg}
		}
		return m.Attr(actuals[k])
	}
	// Formals and h* handles.
	for k := range hIdx {
		at := attrOf(k)
		ent.Add(formals[k], at)
		ent.Add(matrix.Symbolic(k+1), at)
	}
	sameSet := func(at matrix.Attr) path.Set {
		switch at.Nil {
		case matrix.NonNil:
			return path.NewSet(path.Same())
		case matrix.MaybeNil:
			return path.NewSet(path.SamePossible())
		default:
			return path.EmptySet()
		}
	}
	for k := range hIdx {
		s := sameSet(attrOf(k))
		ent.Put(matrix.Symbolic(k+1), formals[k], s)
		ent.Put(formals[k], matrix.Symbolic(k+1), s)
	}
	// Pairwise relations among actuals (covers an actual passed twice:
	// the caller diagonal supplies S).
	for i := range hIdx {
		for j := range hIdx {
			if i == j || actuals[i] == "" || actuals[j] == "" {
				continue
			}
			rel := m.Get(actuals[i], actuals[j])
			if actuals[i] == actuals[j] {
				rel = sameSet(attrOf(i))
			}
			if rel.IsEmpty() {
				continue
			}
			for _, row := range []matrix.Handle{matrix.Symbolic(i + 1), formals[i]} {
				for _, col := range []matrix.Handle{matrix.Symbolic(j + 1), formals[j]} {
					ent.Put(row, col, rel)
				}
			}
		}
	}
	// Stacked handles: the caller's h*k and h**k fold into the callee's
	// h**k.
	type src struct{ h matrix.Handle }
	stacked := map[int][]src{}
	for _, h := range m.Handles() {
		if idx, _, ok := symIndex(h); ok && idx <= len(hIdx) {
			stacked[idx] = append(stacked[idx], src{h})
		}
	}
	mergeRel := func(sets []path.Set) path.Set {
		if len(sets) == 0 {
			return path.EmptySet()
		}
		out := sets[0]
		for _, s := range sets[1:] {
			out = out.MergeJoin(s)
		}
		return out
	}
	for k, sources := range stacked {
		hh := matrix.Stacked(k)
		at := matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.UnknownDeg}
		ent.Add(hh, at)
		// Relations stacked → actuals (and the reverse).
		for j := range hIdx {
			if actuals[j] == "" {
				continue
			}
			var down, up []path.Set
			for _, s := range sources {
				down = append(down, m.Get(s.h, actuals[j]))
				up = append(up, m.Get(actuals[j], s.h))
			}
			d, u := mergeRel(down), mergeRel(up)
			for _, col := range []matrix.Handle{matrix.Symbolic(j + 1), formals[j]} {
				if !d.IsEmpty() {
					ent.Put(hh, col, d)
				}
				if !u.IsEmpty() {
					ent.Put(col, hh, u)
				}
			}
		}
	}
	// Relations among stacked handles.
	for k1, ss1 := range stacked {
		for k2, ss2 := range stacked {
			if k1 == k2 && len(ss1) < 2 {
				continue
			}
			var rels []path.Set
			for _, s1 := range ss1 {
				for _, s2 := range ss2 {
					if s1.h == s2.h {
						continue
					}
					rels = append(rels, m.Get(s1.h, s2.h))
				}
			}
			if r := mergeRel(rels); !r.IsEmpty() {
				ent.AddPaths(matrix.Stacked(k1), matrix.Stacked(k2), r.AllPossible())
			}
		}
	}
	ent.Widen(a.eng.opts.Limits)
	return ent
}

// applyExit maps the callee's exit matrix back into the caller. E and mr
// are the caller's snapshots of the callee summary's exit and mod-ref
// state; hIdx is the callee's (immutable) handle-parameter index.
func (a *analyzer) applyExit(m *matrix.Matrix, E *matrix.Matrix, hIdx []int, mr modref,
	actuals []matrix.Handle, dst *matrix.Handle, callee *ast.ProcDecl) {
	// Only unrecoverable damage propagates as sticky shape; recoverable
	// sharing travels through the argument attributes below.
	m.SetShape(E.StickyShape())
	if mr.modifiesLinks {
		// Relations among actual-argument nodes: the callee's exit h*
		// relations are authoritative.
		for i := range hIdx {
			for j := range hIdx {
				if i == j || actuals[i] == "" || actuals[j] == "" || actuals[i] == actuals[j] {
					continue
				}
				m.Put(actuals[i], actuals[j], E.Get(matrix.Symbolic(i+1), matrix.Symbolic(j+1)))
			}
			// The argument node's indegree changes only if the callee may
			// attach it somewhere; its nil-ness cannot (call-by-value).
			if actuals[i] == "" || !m.Has(actuals[i]) {
				continue
			}
			if mr.attaches[hIdx[i]] {
				at := m.Attr(actuals[i])
				if hs := matrix.Symbolic(i + 1); E.Has(hs) && E.Attr(hs).Indeg == matrix.Shared {
					at.Indeg = matrix.Shared
				} else {
					at.Indeg = matrix.UnknownDeg
				}
				m.SetAttr(actuals[i], at)
			}
		}
		a.regionHavoc(m, hIdx, mr, actuals)
	}
	if dst != nil {
		a.mapReturn(m, E, actuals, *dst, callee)
	}
}

// regionHavoc applies the region rule after a structure-modifying call:
// every caller handle strictly below an update argument may have been
// rearranged anywhere within the update arguments' regions.
func (a *analyzer) regionHavoc(m *matrix.Matrix, hIdx []int, mr modref, actuals []matrix.Handle) {
	var updates []matrix.Handle
	for k, pi := range hIdx {
		if mr.links[pi] && actuals[k] != "" && m.Has(actuals[k]) {
			updates = append(updates, actuals[k])
		}
	}
	if len(updates) == 0 {
		return
	}
	isActual := map[matrix.Handle]bool{}
	for _, ac := range actuals {
		isActual[ac] = true
	}
	// Affected handles: strictly below some update argument.
	affected := map[matrix.Handle]bool{}
	for _, u := range updates {
		for _, y := range m.Handles() {
			if y == u || isActual[y] {
				continue // actual-pair relations were replaced from the exit
			}
			if below := m.Get(u, y).Filter(func(p path.Path) bool { return !p.IsSame() }); !below.IsEmpty() {
				affected[y] = true
			}
		}
	}
	down := path.NewSet(a.eng.psp.NewPossible(path.Plus(path.DownD)))
	for y := range affected {
		// Old paths to and from y are in doubt.
		for _, x := range m.Handles() {
			if x == y {
				continue
			}
			if e := m.Get(x, y); !e.IsEmpty() {
				m.Put(x, y, e.AllPossible())
			}
			if e := m.Get(y, x); !e.IsEmpty() {
				m.Put(y, x, e.AllPossible())
			}
		}
		// y may now sit anywhere below any update argument.
		for _, u := range updates {
			m.AddPaths(u, y, down)
			for _, x := range m.Handles() {
				if x == u || x == y {
					continue
				}
				if toU := m.Get(x, u); !toU.IsEmpty() {
					m.AddPaths(x, y, toU.ConcatAll(down).AllPossible())
				}
			}
		}
		// Its attachment count is no longer known.
		at := m.Attr(y)
		at.Indeg = matrix.UnknownDeg
		m.SetAttr(y, at)
	}
}

// mapReturn binds a handle-typed function result: the exit matrix relates
// the callee's return variable to the h* argument nodes, which the caller
// translates to its actuals.
func (a *analyzer) mapReturn(m *matrix.Matrix, E *matrix.Matrix, actuals []matrix.Handle, dst matrix.Handle, callee *ast.ProcDecl) {
	ret := matrix.Handle(callee.ReturnVar)
	retAttr := matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.UnknownDeg}
	if E.Has(ret) {
		retAttr = E.Attr(ret)
	}
	type pair struct{ down, up path.Set }
	rels := make([]pair, len(actuals))
	for i := range actuals {
		rels[i] = pair{
			down: E.Get(matrix.Symbolic(i+1), ret),
			up:   E.Get(ret, matrix.Symbolic(i+1)),
		}
	}
	m.Remove(dst)
	m.Add(dst, retAttr)
	for i, ai := range actuals {
		if ai == "" || !m.Has(ai) || ai == dst {
			continue
		}
		if !rels[i].down.IsEmpty() {
			m.AddPaths(ai, dst, rels[i].down)
			for _, x := range m.Handles() {
				if x == ai || x == dst {
					continue
				}
				if toA := m.Get(x, ai); !toA.IsEmpty() {
					m.AddPaths(x, dst, toA.ConcatAll(rels[i].down))
				}
			}
		}
		if !rels[i].up.IsEmpty() {
			m.AddPaths(dst, ai, rels[i].up)
			for _, y := range m.Handles() {
				if y == ai || y == dst {
					continue
				}
				if fromA := m.Get(ai, y); !fromA.IsEmpty() {
					m.AddPaths(dst, y, rels[i].up.ConcatAll(fromA))
				}
			}
		}
	}
}
