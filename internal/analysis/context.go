package analysis

// Context-sensitive procedure summaries, one context per call site. The
// paper's §5.2 keeps ONE entry matrix per procedure (pB merges "all
// possible relationships … for the recursive calls of add_n"), which
// over-approximates as soon as a procedure is called from dissimilar
// places: a call on a fresh, unrelated tree inherits the aliasing of a call
// on overlapping external roots. This file keys contexts by call site
// instead — the call-string approach of Sharir & Pnueli (1981) cut to
// length 1, the bound of Shivers' 1-CFA — so the table is bounded by the
// program text, with no cap and no eviction.
//
// A non-recursive call site's entry is the widened join of the LATEST entry
// each caller item (a context of the calling procedure) presented there;
// presentations from one item within one round (a call inside a while
// loop) join first. It is deliberately not a running join over the whole
// run: a site's entry is a function of the current presentations only, so
// a summary-seeded run that skips the transient states of a cold run lands
// on the same entries. A caller item that leaves the table withdraws its
// presentations. At every round barrier a site whose entry moved binds, in
// this order:
//
//  1. the context it already binds, if that context's entry equals the
//     site's entry;
//  2. any live (or seeded) context with that entry — sites with equal
//     entries share one context;
//  3. its own context, grown in place (exit reset to bottom), when no other
//     site binds it and it did not come from a seed;
//  4. a new context.
//
// A context no site binds leaves the table, withdrawing its own
// presentations in turn.
//
// Calls whose caller and callee share a call-graph SCC (self or mutual
// recursion) bind the procedure's merged fallback instead: inside a
// recursive cycle the stacked-handle relations (h**k) generate an unbounded
// family of pairwise incomparable entries (L1?, R1L1?, L1R1L2?, …), so the
// fallback joins them exactly the way the paper's pB "summarizes all
// possible relationships … for the recursive calls of add_n". Context
// sensitivity therefore distinguishes where a procedure is CALLED from
// (fresh tree vs aliased roots), not its recursion depth. The fallback is
// created, and analyzed, at the first same-SCC presentation, seeded from
// the procedure's exact entries; every later exact entry folds into it.

import (
	"sort"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/sil/ast"
)

// mergedMemoCap bounds how many no-op entries the merged fallback's
// fold memo retains (cleared whenever the merged entry grows).
const mergedMemoCap = 64

// ProcContext is one call context of a procedure: an entry matrix over the
// formals and symbolic handles (h*i, h**i) paired with the exit computed
// from exactly that entry. The merged fallback context (IsMerged) is the
// join of every entry presented to the procedure — the paper's original
// single-summary view. During the fixpoint every field is guarded by the
// owning Summary's lock; after Analyze returns, contexts are quiescent and
// may be read directly.
type ProcContext struct {
	// entry changes only at round barriers: an exact context grows in
	// place (step 3 above), the merged fallback as entries fold in.
	entry *matrix.Matrix
	// exit is the matrix at procedure exit projected onto the
	// caller-visible handles; nil means bottom (no terminating path
	// analyzed from this entry yet).
	exit *matrix.Matrix
	// merged marks the widened fallback context.
	merged bool
	// seeded marks a context imported from Options.Seeds: it is never
	// grown in place, so a seed check can rely on its entry.
	seeded bool
	// sites counts the call sites binding the context (main's root
	// context holds one pin of its own). Barrier-only mutation.
	sites int
	// seq is the context's creation sequence number within its summary —
	// contexts are only created at round barriers, so seq is deterministic
	// and serves as the canonical work-list tiebreaker.
	seq int
	// dropped marks contexts that left the table; pending work items for
	// them are discarded.
	dropped bool
}

// Entry returns the context's entry matrix. Callers outside the analysis
// fixpoint (tests, tools) may use it freely once Analyze has returned.
func (c *ProcContext) Entry() *matrix.Matrix { return c.entry }

// Exit returns the context's exit matrix, nil while bottom.
func (c *ProcContext) Exit() *matrix.Matrix { return c.exit }

// IsMerged reports whether this is the merged fallback context.
func (c *ProcContext) IsMerged() bool { return c.merged }

// callSite is one call of the program: the latest entry each caller item
// presented there, and the context the site binds (recursive calls bind
// the fallback and never present at theirs). Sites are registered once per
// analysis (Info.sites) and mutated only at round barriers and in the
// sequential recording pass.
type callSite struct {
	// idx is the site's pre-order position in the program: the canonical
	// order in which a barrier rebinds sites.
	idx    int
	callee string
	// pres holds one joined presentation per caller item, usually one.
	pres []sitePres
	ctx  *ProcContext
	// touched marks membership in the barrier's rebind queue.
	touched bool
	// replayed marks a site bound by the recording pass (a seeded caller
	// that never ran during the fixpoint); its presentations are checked
	// against the bound entry afterwards.
	replayed bool
}

// sitePres is one caller item's latest (joined) presentation at a site.
type sitePres struct {
	caller item
	ent    *matrix.Matrix
}

// registerSites numbers every call of the program in pre-order.
func registerSites(prog *ast.Program) map[ast.Node]*callSite {
	sites := map[ast.Node]*callSite{}
	add := func(n ast.Node, callee string) {
		sites[n] = &callSite{idx: len(sites), callee: callee}
	}
	for _, d := range prog.Decls {
		walkStmts(d.Body, func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.CallStmt:
				add(s, s.Name)
			case *ast.Assign:
				if c, ok := s.Rhs.(*ast.CallExpr); ok {
					add(c, c.Name)
				}
			}
		})
	}
	return sites
}

// presentation returns the caller's current presentation at the site.
func (cs *callSite) presentation(caller item) *matrix.Matrix {
	for _, p := range cs.pres {
		if p.caller == caller {
			return p.ent
		}
	}
	return nil
}

// setPresentation records ent as the caller's latest presentation.
func (cs *callSite) setPresentation(caller item, ent *matrix.Matrix) {
	for i := range cs.pres {
		if cs.pres[i].caller == caller {
			cs.pres[i].ent = ent
			return
		}
	}
	cs.pres = append(cs.pres, sitePres{caller, ent})
}

// withdraw removes the caller's presentation, reporting whether it had one.
func (cs *callSite) withdraw(caller item) bool {
	for i := range cs.pres {
		if cs.pres[i].caller == caller {
			cs.pres = append(cs.pres[:i:i], cs.pres[i+1:]...)
			return true
		}
	}
	return false
}

// entry returns the site's entry: the join of every presentation, widened
// once at the end so the result does not depend on the order callers first
// presented in. Nil when nobody presents; a single presenter costs no
// allocation.
func (cs *callSite) entry(lim path.Limits) *matrix.Matrix {
	if len(cs.pres) == 0 {
		return nil
	}
	out := cs.pres[0].ent
	for _, p := range cs.pres[1:] {
		out = out.Merge(p.ent)
	}
	if len(cs.pres) > 1 {
		out.Widen(lim)
	}
	return out
}

// resolveFrozen binds a non-recursive presentation during a fixpoint
// round, without mutating anything: steps 1–2 of the binding order. The
// site's current context stands even when this presentation will move the
// site's entry — the barrier then regrows or rebinds it, and the caller
// re-runs once the context it ends up bound to has an exit. A site that
// binds nothing yet takes a live context with exactly this entry, or
// nothing (bottom) until the barrier.
func (cs *callSite) resolveFrozen(s *Summary, ent *matrix.Matrix) *ProcContext {
	if cs.ctx != nil {
		return cs.ctx
	}
	return s.findExact(ent)
}

// resolveRecorded binds a call outside the fixpoint — in the recording
// pass and in Replay (replay true). Recursive calls bind the fallback,
// other calls their site's context. A site the fixpoint never bound (its
// caller is seeded and never ran) binds the first live context whose
// entry covers the presentation: the recording pass keeps that binding and
// its presentations for the seed check (replayedSitesHeld), which holds
// only if their join is exactly the bound entry — the binding the fixpoint
// would have made. Replay leaves the site alone, binding an equal entry or
// the merged context, if any.
func (e *engine) resolveRecorded(sum *Summary, node ast.Node, ent *matrix.Matrix, recursive bool, caller item, replay bool) *ProcContext {
	if recursive {
		return sum.fallback()
	}
	cs := e.info.sites[node]
	if cs != nil && cs.ctx != nil {
		if cs.replayed && !replay {
			if prev := cs.presentation(caller); prev != nil {
				ent = prev.Merge(ent)
				ent.Widen(e.opts.Limits)
			}
			cs.setPresentation(caller, ent)
		}
		return cs.ctx
	}
	if replay {
		if c := sum.findExact(ent); c != nil {
			return c
		}
		return sum.fallback()
	}
	c := sum.findCovering(ent, e.opts.Limits)
	if c == nil || cs == nil {
		e.unresolved = true
		return nil
	}
	cs.ctx, cs.replayed = c, true
	c.sites++
	cs.setPresentation(caller, ent)
	e.replayed = append(e.replayed, cs)
	return c
}

// replayedSitesHeld checks the sites the recording pass bound itself: each
// must bind a context whose entry is exactly the widened join of what was
// presented there — the binding a fixpoint run of those callers would
// have made — and no recording-pass call may have gone unbound.
func (e *engine) replayedSitesHeld() bool {
	if e.unresolved {
		return false
	}
	for _, cs := range e.replayed {
		if !cs.entry(e.opts.Limits).Equal(cs.ctx.entry) {
			return false
		}
	}
	return true
}

// rootContext binds main's entry: a seeded context with that entry, else a
// new exact context (reported by isNew, the fixpoint's first work item).
// Either is pinned so it never leaves the table. In merged mode the entry
// folds into main's fallback like any other.
func (s *Summary) rootContext(ent *matrix.Matrix, opts Options) (c *ProcContext, isNew bool) {
	if opts.mergedOnly {
		return s.bindFallback(ent, opts.Limits, false)
	}
	if c = s.findExact(ent); c == nil {
		c, _ = s.newContext(ent, opts.Limits)
		isNew = true
	}
	c.sites++
	return c, isNew
}

// findExact returns the live exact context whose entry equals ent. A
// procedure has at most one exact context per call site, so a scan (Equal
// rejects on the fingerprint first) is all the lookup needs.
func (s *Summary) findExact(ent *matrix.Matrix) *ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.exact {
		if c.entry.Equal(ent) {
			return c
		}
	}
	return nil
}

// findCovering returns the first live exact context, in creation order,
// whose entry covers ent: joining ent into it changes nothing.
func (s *Summary) findCovering(ent *matrix.Matrix, lim path.Limits) *ProcContext {
	if c := s.findExact(ent); c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.exact {
		j := c.entry.Merge(ent)
		j.Widen(lim)
		if j.Equal(c.entry) {
			return c
		}
	}
	return nil
}

// newContext admits a new exact context (step 4). Reports whether the
// merged fallback grew as the entry folded in.
func (s *Summary) newContext(ent *matrix.Matrix, lim path.Limits) (c *ProcContext, fbGrew bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c = &ProcContext{entry: ent, seq: s.nextSeq()}
	s.exact = append(s.exact, c)
	return c, s.merged != nil && s.foldMergedLocked(ent, lim)
}

// regrow moves an exact context to a new entry in place (step 3): its
// exit restarts at bottom, exactly as a fresh context's would. Reports
// whether the merged fallback grew as the entry folded in.
func (s *Summary) regrow(c *ProcContext, ent *matrix.Matrix, lim path.Limits) (fbGrew bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.entry, c.exit = ent, nil
	return s.merged != nil && s.foldMergedLocked(ent, lim)
}

// dropContext removes an exact context no site binds any more.
func (s *Summary) dropContext(c *ProcContext) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.exact {
		if o == c {
			s.exact = append(s.exact[:i:i], s.exact[i+1:]...)
			break
		}
	}
	c.dropped = true
}

// bindFallback binds a same-SCC presentation (or, in the test-only merged
// mode, any presentation) to the merged fallback. The fallback is created
// at the first such presentation from the join of the exact entries.
// presenterExact marks a presentation staged by an EXACT context's body:
// it does not fold its own entry, because the fallback's body — analyzed
// from an entry that covers every exact entry — re-presents a covering
// entry at the same call sites, and folding the exact body's sharper
// spelling too only bloats the fallback entry with set members the
// widening cannot collapse (they are covered by unions, not by single
// paths). A fallback body's presentation folds, and so does one that
// meets no exact entry to seed from (mutual recursion entered sideways,
// merged mode). Reports whether the fallback's entry grew (or the fallback
// was just created), which makes it fixpoint work.
func (s *Summary) bindFallback(ent *matrix.Matrix, lim path.Limits, presenterExact bool) (*ProcContext, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged != nil {
		return s.merged, !presenterExact && s.foldMergedLocked(ent, lim)
	}
	var seeds []*matrix.Matrix
	if !presenterExact || len(s.exact) == 0 {
		seeds = append(seeds, ent)
	}
	for _, c := range s.exact {
		seeds = append(seeds, c.entry)
	}
	seed := seeds[0]
	for _, e := range seeds[1:] {
		seed = seed.Merge(e)
	}
	if len(seeds) > 1 {
		seed.Widen(lim)
	}
	s.merged = &ProcContext{entry: seed, merged: true, seq: s.nextSeq()}
	return s.merged, true
}

// foldMergedLocked joins one entry into the existing merged fallback,
// reporting whether the fallback's entry grew. Entries already known to be
// no-ops (by fingerprint, with a structural fallback) return immediately:
// at and near the fixpoint every recursive call re-presents the same entry
// on every pass, and the memo turns those passes allocation-free.
func (s *Summary) foldMergedLocked(ent *matrix.Matrix, lim path.Limits) (grew bool) {
	fp := ent.Fingerprint()
	for _, seen := range s.mergedMemo[fp] {
		if seen.Equal(ent) {
			return false
		}
	}
	next := s.merged.entry.Merge(ent)
	next.Widen(lim)
	if next.Equal(s.merged.entry) {
		if s.mergedMemoN < mergedMemoCap {
			if s.mergedMemo == nil {
				s.mergedMemo = make(map[matrix.Fp][]*matrix.Matrix)
			}
			s.mergedMemo[fp] = append(s.mergedMemo[fp], ent)
			s.mergedMemoN++
		}
		return false
	}
	s.merged.entry = next
	s.mergedMemo = nil
	s.mergedMemoN = 0
	return true
}

// fallback returns the merged fallback context, nil if none exists.
func (s *Summary) fallback() *ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merged
}

// noteFallbackAnalysis counts one fixpoint analysis of the merged
// fallback (reporting hook; single-threaded scheduling path).
func (s *Summary) noteFallbackAnalysis() {
	s.mu.Lock()
	s.fbAnalyses++
	s.mu.Unlock()
}

// nextSeq issues the next context creation sequence number (caller holds
// s.mu).
func (s *Summary) nextSeq() int {
	s.seqCounter++
	return s.seqCounter
}

// applyModref ORs one item's staged mod-ref flags into the summary,
// reporting whether any bit was news. Called at round barriers.
func (s *Summary) applyModref(st *stagedUpdates) (changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.modifiesLinks && !s.ModifiesLinks {
		s.ModifiesLinks = true
		changed = true
	}
	apply := func(dst []bool, flags map[int]bool) {
		for pos := range flags {
			if pos < len(dst) && !dst[pos] {
				dst[pos] = true
				changed = true
			}
		}
	}
	apply(s.UpdateParams, st.modUpdate)
	apply(s.LinkParams, st.modLink)
	apply(s.AttachesParams, st.modAttach)
	return changed
}

// ctxEntry snapshots a context's entry matrix pointer.
func (s *Summary) ctxEntry(c *ProcContext) *matrix.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.entry
}

// ctxExit snapshots a context's exit matrix pointer (nil while bottom).
func (s *Summary) ctxExit(c *ProcContext) *matrix.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.exit
}

// updateCtxExit folds a freshly computed exit projection into the context,
// reporting whether the exit changed.
func (s *Summary) updateCtxExit(c *ProcContext, proj *matrix.Matrix, lim path.Limits) (changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.exit != nil && c.exit.Equal(proj) {
		return false
	}
	if c.exit != nil {
		next := c.exit.Merge(proj)
		next.Widen(lim)
		if c.exit.Equal(next) {
			return false
		}
		proj = next
	}
	c.exit = proj
	return true
}

// Contexts returns the summary's contexts in a deterministic order: exact
// contexts sorted by the canonical content rendering of their entries,
// then the merged fallback (if any). Content order — not fingerprint
// order — so the sequence is comparable across Spaces, epochs, and
// seeded/cold runs: fingerprints incorporate interned IDs, and a seeded
// run interns the decoded summaries before the program's own matrices,
// which permuted fingerprint order run-to-run (Options.Seeds is a map).
func (s *Summary) Contexts() []*ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*ProcContext(nil), s.exact...)
	keys := make(map[*ProcContext]string, len(out))
	for _, c := range out {
		keys[c] = canonicalKey(c.entry)
	}
	sort.Slice(out, func(i, j int) bool { return keys[out[i]] < keys[out[j]] })
	if s.merged != nil {
		out = append(out, s.merged)
	}
	return out
}

// ContextStats reports the table's post-run shape: live exact contexts
// and whether the merged fallback exists.
func (s *Summary) ContextStats() (exact int, hasMerged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.exact), s.merged != nil
}

// CtxTableStats aggregates the context-table statistics of a whole
// analysis (reported in the result document and the bench/ layer
// counters, and pinned per corpus program by TestCorpusWorkCounts).
type CtxTableStats struct {
	// Exact counts distinct live exact contexts; MergedProcs counts
	// procedures whose merged fallback exists; FallbackAnalyses counts the
	// fixpoint analyses the fallbacks consumed. Evictions is always 0: the
	// call-site table is bounded by the program text and never evicts.
	Exact, MergedProcs, Evictions, FallbackAnalyses int
}

// ContextTableStats sums the per-summary context-table statistics over the
// whole analysis.
func (in *Info) ContextTableStats() CtxTableStats {
	var t CtxTableStats
	for _, s := range in.Summaries {
		e, m := s.ContextStats()
		t.Exact += e
		if m {
			t.MergedProcs++
		}
		s.mu.Lock()
		t.FallbackAnalyses += s.fbAnalyses
		s.mu.Unlock()
	}
	return t
}
