package analysis

// Context-sensitive procedure summaries. The paper's §5.2 keeps ONE entry
// matrix per procedure (pB merges "all possible relationships … for the
// recursive calls of add_n"), which over-approximates as soon as a
// procedure is called from dissimilar contexts: a call on a fresh,
// unrelated tree inherits the aliasing of a call on overlapping external
// roots. This file replaces the merged pair with a per-context table —
// each distinct call context, keyed by its entry-matrix fingerprint
// (structural Equal fallback on collision), maps to the exit computed from
// exactly that entry.
//
// The table is bounded by Options.MaxContexts with an LRU-with-merge-
// fallback policy (blind truncation — the old entryMemo clear-on-growth
// hack — discards exactly the hot contexts a high-fan-in fixpoint keeps
// re-presenting; recency keeps them): beyond the cap the least recently
// used context is evicted into a merged widened fallback context whose
// entry joins every context ever presented, so precision degrades
// gracefully to the paper's single-summary behavior instead of failing.
// An evicted fingerprint is remembered and redirected to the fallback
// forever after — re-admitting it would let a >cap working set recreate
// and evict contexts in a cycle and the fixpoint would never drain.
//
// Calls whose caller and callee share a call-graph SCC (self or mutual
// recursion) always bind the merged fallback: inside a recursive cycle the
// stacked-handle relations (h**k) generate an unbounded family of pairwise
// incomparable entries (L1?, R1L1?, L1R1L2?, …), so keying recursion by
// exact entry would enumerate that family instead of converging — the
// fallback joins them exactly the way the paper's pB "summarizes all
// possible relationships … for the recursive calls of add_n". Context
// sensitivity therefore distinguishes how a procedure is REACHED (fresh
// tree vs aliased roots), not its recursion depth.
//
// The merged fallback is lazy twice over. Its ENTRY is created (and keeps
// absorbing every presented entry) from the second distinct context on,
// which keeps it a sound stand-in for any context the procedure has seen —
// Replay and the recording pass fall back to it when an entry has no exact
// match. Its ANALYSIS, by contrast, is demand-driven: the fallback is not
// enqueued as fixpoint work until a consumer appears — a same-SCC call
// binds it, an eviction (or an evicted fingerprint's re-presentation)
// redirects into it, or, at the latest, the engine's drain barrier
// activates it because a second distinct entry is live in the converged
// table (preserving the Replay stand-in property at a residual cost of a
// few post-convergence passes instead of a full seat in every widening
// round). Single-context procedures — the common case — never analyze a
// fallback at all and pay exactly merged-mode cost.
//
// Orthogonally, converged exits are SHARED between contexts instead of
// re-analyzed when mod-ref proves the body cannot tell them apart: a new
// entry whose every claim is covered by an already-converged context's
// entry (entryCoveredBy — language inclusion per cell, attribute lattice
// order, definite claims preserved) binds that context's exit directly
// when the procedure is read-only (no update/attach parameters, no link
// modifications — so the exit is entry-invariant over the differing
// paths). The binding is an alias, not a context: it is remembered by
// fingerprint, re-resolved on every presentation, and invalidated
// wholesale whenever the mod-ref bits sharpen (the read-only premise was
// provisional; the affected callers re-present and the entry is admitted
// as a real context instead).

import (
	"sort"

	"repro/internal/matrix"
	"repro/internal/path"
)

// DefaultMaxContexts is the per-procedure context-table cap used when
// Options.MaxContexts is zero.
const DefaultMaxContexts = 16

// mergedMemoCap bounds how many no-op entries the merged fallback's
// fold memo retains (cleared whenever the merged entry grows).
const mergedMemoCap = 64

// ProcContext is one call context of a procedure: an entry matrix over the
// formals and symbolic handles (h*i, h**i) paired with the exit computed
// from exactly that entry. The merged fallback context (IsMerged) is the
// join of every context presented to the procedure — the paper's original
// single-summary view. During the fixpoint every field is guarded by the
// owning Summary's lock; after Analyze returns, contexts are quiescent and
// may be read directly.
type ProcContext struct {
	// entry is immutable for exact contexts; the merged fallback replaces
	// it (with a fresh matrix) as more contexts fold in.
	entry *matrix.Matrix
	// exit is the matrix at procedure exit projected onto the
	// caller-visible handles; nil means bottom (no terminating path
	// analyzed from this entry yet).
	exit *matrix.Matrix
	// merged marks the widened fallback context.
	merged bool
	// active reports that the context participates in the fixpoint as a
	// work item. Exact contexts are born active; the merged fallback is
	// born dormant (entry accumulation only) and activated by its first
	// consumer — a same-SCC binding, an eviction redirect, or the engine's
	// drain barrier (see the package comment).
	active bool
	// seq is the context's creation sequence number within its summary —
	// contexts are only created at round barriers, so seq is deterministic
	// and serves as the canonical work-list tiebreaker.
	seq int
	// dropped marks contexts evicted from the table (or pruned); pending
	// work items for them are discarded.
	dropped bool
}

// sharedBinding is one shared-exit alias: a presented entry that was bound
// to an already-converged context's exit instead of being admitted (and
// analyzed) as a context of its own.
type sharedBinding struct {
	ent   *matrix.Matrix
	donor *ProcContext
}

// Entry returns the context's entry matrix. Callers outside the analysis
// fixpoint (tests, tools) may use it freely once Analyze has returned.
func (c *ProcContext) Entry() *matrix.Matrix { return c.entry }

// Exit returns the context's exit matrix, nil while bottom.
func (c *ProcContext) Exit() *matrix.Matrix { return c.exit }

// IsMerged reports whether this is the merged fallback context.
func (c *ProcContext) IsMerged() bool { return c.merged }

// ctxLookup is the result of binding one call site to a context.
type ctxLookup struct {
	// ctx is the binding for this call site.
	ctx *ProcContext
	// analyze lists contexts that need (re-)analysis: a freshly admitted
	// exact context, and/or the merged fallback when it is active and its
	// entry grew (or it was just activated).
	analyze []*ProcContext
	// evicted is the exact context this lookup pushed into the fallback,
	// if any; its dependents must be re-enqueued to rebind.
	evicted *ProcContext
	// sharedNew reports that this lookup created a fresh shared-exit
	// alias: the presenting caller resolved bottom in-round and must
	// re-run to pick up the donor's exit.
	sharedNew bool
}

// contextFor binds a call entry to a context, admitting it into the table
// if it is new. recursive marks a same-SCC call, which always binds the
// merged fallback (see the package comment above); presenterExact marks a
// recursive presentation staged by an EXACT context's body. Such a
// presentation binds and activates the fallback but does not fold its
// entry (once the fallback exists): the fallback's own body — analyzed
// from an entry that covers every exact entry — re-presents a covering
// entry at the same call sites, so folding the exact body's sharper
// spelling too only bloats the fallback entry with set members the
// widening cannot collapse (they are covered by unions, not by single
// paths) and makes every fallback pass pay for precision the fallback
// exists to forget. The caller must not mutate ent afterwards (call sites
// build a fresh entry per call, so this holds). Called only at round
// barriers.
func (s *Summary) contextFor(ent *matrix.Matrix, lim path.Limits, recursive, presenterExact bool) ctxLookup {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := ent.Fingerprint()
	if !recursive {
		// Exact hit: the entry was folded into the fallback (if any) when
		// it was admitted, so nothing else to do.
		for _, c := range s.contexts[fp] {
			if c.entry.Equal(ent) {
				s.touchLocked(c)
				return ctxLookup{ctx: c}
			}
		}
		// Alias hit: the entry already shares a converged donor's exit.
		for _, sb := range s.shared[fp] {
			if sb.ent.Equal(ent) {
				s.touchLocked(sb.donor)
				return ctxLookup{ctx: sb.donor}
			}
		}
	}
	var lk ctxLookup
	if !recursive && s.maxContexts > 0 && !s.evicted[fp] {
		// Entry-invariant exit sharing: a read-only procedure cannot tell
		// this entry apart from a converged context that covers it — bind
		// that context's exit instead of admitting (and analyzing) a new
		// context.
		if donor := s.shareDonorLocked(ent); donor != nil {
			if s.shared == nil {
				s.shared = make(map[matrix.Fp][]sharedBinding)
			}
			s.shared[fp] = append(s.shared[fp], sharedBinding{ent: ent, donor: donor})
			s.exitsShared++
			s.touchLocked(donor)
			return ctxLookup{ctx: donor, sharedNew: true}
		}
		c := &ProcContext{entry: ent, active: true, seq: s.nextSeq()}
		if s.contexts == nil {
			s.contexts = make(map[matrix.Fp][]*ProcContext)
		}
		s.contexts[fp] = append(s.contexts[fp], c)
		s.lru = append(s.lru, c)
		lk.ctx = c
		lk.analyze = append(lk.analyze, c)
		if len(s.lru) > 1 || s.merged != nil {
			// Second distinct context: the fallback entry starts existing
			// (or keeps absorbing) — but stays dormant until a consumer
			// activates it.
			grew := s.foldMergedLocked(ent, lim)
			if s.merged.active && grew {
				lk.analyze = append(lk.analyze, s.merged)
			}
		}
		if len(s.lru) > s.maxContexts {
			victim := s.lru[0]
			s.lru = s.lru[1:]
			s.dropContextLocked(victim)
			s.evictions++
			lk.evicted = victim
			// The eviction redirects future presentations of the victim's
			// fingerprint into the fallback: that is a consumer.
			if s.activateFallbackLocked() {
				lk.analyze = append(lk.analyze, s.merged)
			}
		}
		return lk
	}
	// Recursive call, context sensitivity off, or the fingerprint was
	// evicted: fold into the merged fallback — and since this presentation
	// BINDS the fallback, it is a consumer and activates it. A recursive
	// presentation from an exact body skips the fold (see above) unless it
	// has to create a fallback for a procedure with no exact context of
	// its own (mutual recursion entered sideways), where nothing else
	// would seed the first analysis with a real entry.
	grew := false
	if !recursive || !presenterExact || (s.merged == nil && len(s.lru) == 0) {
		grew = s.foldMergedLocked(ent, lim)
	} else if s.merged == nil {
		// Create the fallback seeded from the exact entries alone; the
		// fallback body's own presentations (which cover this one — they
		// are computed from an entry that joins every exact entry) grow it
		// from there, exactly as in merged mode.
		grew = s.seedMergedLocked(lim)
	}
	newly := s.activateFallbackLocked()
	if grew || newly {
		lk.analyze = append(lk.analyze, s.merged)
	}
	lk.ctx = s.merged
	return lk
}

// activateFallbackLocked marks the merged fallback as live fixpoint work,
// reporting whether this call flipped it (the fallback then needs an
// initial analysis from its accumulated entry). The fallback must already
// exist.
func (s *Summary) activateFallbackLocked() bool {
	if s.merged == nil || s.merged.active {
		return false
	}
	s.merged.active = true
	s.fbActivations++
	return true
}

// activateDormantFallback is the drain-barrier activation: a summary whose
// table holds two or more distinct entries but whose fallback never found
// a consumer during the fixpoint activates now, so the fallback exit is
// materialized as the sound stand-in Replay and the recording pass expect
// from a multi-context procedure. Reports whether the fallback was
// activated (the engine then enqueues it).
func (s *Summary) activateDormantFallback() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged == nil || s.merged.active || len(s.lru) < 2 {
		return false
	}
	return s.activateFallbackLocked()
}

// noteFallbackAnalysis counts one fixpoint analysis of the merged
// fallback (reporting hook; single-threaded scheduling path).
func (s *Summary) noteFallbackAnalysis() {
	s.mu.Lock()
	s.fbAnalyses++
	s.mu.Unlock()
}

// readOnlyLocked reports that no context of the procedure has been seen to
// write through (or attach) any parameter nor modify links — the premise
// of entry-invariant exit sharing. The bits are monotone during the
// fixpoint, so a true verdict is provisional; applyModref invalidates the
// aliases if it is later withdrawn.
func (s *Summary) readOnlyLocked() bool {
	if s.ModifiesLinks {
		return false
	}
	for i := range s.UpdateParams {
		if s.UpdateParams[i] || s.AttachesParams[i] {
			return false
		}
	}
	return true
}

// shareDonorLocked returns the converged exact context whose entry covers
// ent (language inclusion per cell, attribute lattice order, definite
// claims preserved — entryCoveredBy), or nil when none qualifies or the
// procedure is not read-only. Candidates are scanned in creation order so
// the donor choice is schedule-independent.
func (s *Summary) shareDonorLocked(ent *matrix.Matrix) *ProcContext {
	if len(s.lru) == 0 || !s.readOnlyLocked() {
		return nil
	}
	cands := append([]*ProcContext(nil), s.lru...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	for _, c := range cands {
		if c.exit != nil && entryCoveredBy(ent, c.entry) {
			return c
		}
	}
	return nil
}

// entryCoveredBy reports that every claim sub makes is also made by sup —
// sub's concretization is contained in sup's, so sup's exit is a sound
// over-approximation of the exit sub's analysis would compute. Possible
// claims of sub must appear in sup; definite (must) claims of sup must be
// backed by at least as strong a definite claim in sub; attributes follow
// the precision lattice (MaybeNil and UnknownDeg on top).
func entryCoveredBy(sub, sup *matrix.Matrix) bool {
	if sub.StickyShape() > sup.StickyShape() {
		return false
	}
	hs := sub.Handles()
	if len(hs) != len(sup.Handles()) {
		return false
	}
	for _, h := range hs {
		if !sup.Has(h) {
			return false
		}
		as, ap := sub.Attr(h), sup.Attr(h)
		if as.Nil != ap.Nil && ap.Nil != matrix.MaybeNil {
			return false
		}
		if as.Indeg != ap.Indeg && ap.Indeg != matrix.UnknownDeg {
			return false
		}
	}
	for _, a := range hs {
		for _, b := range hs {
			if !setCoveredBy(sub.Get(a, b), sup.Get(a, b)) {
				return false
			}
		}
	}
	return true
}

// setCoveredBy reports cell-level coverage: every path (and S) sub claims
// possible is inside sup's language, and every definite claim of sup is
// backed by a definite claim of sub it subsumes.
func setCoveredBy(sub, sup path.Set) bool {
	for _, p := range sub.Paths() {
		if p.IsSame() {
			if !sup.HasSame() {
				return false
			}
			continue
		}
		covered := false
		for _, q := range sup.Paths() {
			if !q.IsSame() && path.Subsumes(q, p) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	for _, q := range sup.Paths() {
		if q.Possible() {
			continue
		}
		if q.IsSame() {
			if !sub.HasDefiniteSame() {
				return false
			}
			continue
		}
		backed := false
		for _, p := range sub.Paths() {
			if !p.Possible() && !p.IsSame() && path.Subsumes(q, p) {
				backed = true
				break
			}
		}
		if !backed {
			return false
		}
	}
	return true
}

// touchLocked marks an exact context as recently used.
func (s *Summary) touchLocked(c *ProcContext) {
	if c.merged {
		return
	}
	for i, o := range s.lru {
		if o == c {
			s.lru = append(append(s.lru[:i:i], s.lru[i+1:]...), c)
			return
		}
	}
}

// dropContextLocked removes an exact context from the fingerprint buckets
// and remembers its fingerprint as evicted. Its entry is already part of
// the fallback (folded at admission), so eviction is a pure cache drop.
func (s *Summary) dropContextLocked(victim *ProcContext) {
	fp := victim.entry.Fingerprint()
	bucket := s.contexts[fp]
	for i, c := range bucket {
		if c == victim {
			s.contexts[fp] = append(bucket[:i:i], bucket[i+1:]...)
			break
		}
	}
	if len(s.contexts[fp]) == 0 {
		delete(s.contexts, fp)
	}
	if s.evicted == nil {
		s.evicted = make(map[matrix.Fp]bool)
	}
	s.evicted[fp] = true
	victim.dropped = true
	// Shared-exit aliases pointing at the victim dissolve: their
	// fingerprints are NOT marked evicted, so re-presentations are free to
	// re-admit them as contexts of their own (or find a new donor).
	for afp, bucket := range s.shared {
		kept := bucket[:0]
		for _, sb := range bucket {
			if sb.donor != victim {
				kept = append(kept, sb)
			} else {
				s.exitsShared--
			}
		}
		if len(kept) == 0 {
			delete(s.shared, afp)
		} else {
			s.shared[afp] = kept
		}
	}
}

// seedMergedLocked creates the merged fallback from the join of the exact
// entries admitted so far, without folding the presentation that triggered
// it. The caller guarantees at least one exact context exists.
func (s *Summary) seedMergedLocked(lim path.Limits) bool {
	seed := s.lru[0].entry
	for _, c := range s.lru[1:] {
		seed = seed.Merge(c.entry)
	}
	if len(s.lru) > 1 {
		seed.Widen(lim)
	}
	s.merged = &ProcContext{entry: seed, merged: true, seq: s.nextSeq()}
	return true
}

// foldMergedLocked joins one entry into the merged fallback, creating it
// (seeded with every exact entry admitted so far) on first use. Reports
// whether the fallback's entry grew. Entries already known to be no-ops
// (by fingerprint, with a structural fallback) return immediately: at and
// near the fixpoint every call site re-presents the same context on every
// pass, and the memo turns those passes allocation-free.
func (s *Summary) foldMergedLocked(ent *matrix.Matrix, lim path.Limits) (grew bool) {
	if s.merged == nil {
		seed := ent
		for _, c := range s.lru {
			if c.entry == ent { //sillint:allow internedeq identity on purpose: skip folding ent into itself
				continue
			}
			seed = seed.Merge(c.entry)
		}
		// Identity, not content: Merge returns a fresh matrix iff the loop
		// folded anything, and only a fresh (unshared) one may be widened
		// in place.
		if seed != ent { //sillint:allow internedeq
			seed.Widen(lim)
		}
		s.merged = &ProcContext{entry: seed, merged: true, seq: s.nextSeq()}
		return true
	}
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

// lookupContext resolves an entry without mutating the table — the
// read-only binding used by the recording pass and Replay, applying the
// same rules as contextFor: recursive calls bind the fallback, others
// match exactly first; for a single-context procedure (no fallback yet)
// that one context stands in.
func (s *Summary) lookupContext(ent *matrix.Matrix, recursive bool) *ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !recursive {
		fp := ent.Fingerprint()
		for _, c := range s.contexts[fp] {
			if c.entry.Equal(ent) {
				return c
			}
		}
		for _, sb := range s.shared[fp] {
			if sb.ent.Equal(ent) {
				return sb.donor
			}
		}
	}
	if s.merged != nil {
		return s.merged
	}
	if len(s.lru) == 1 {
		return s.lru[0]
	}
	return nil
}

// resolveFrozen resolves a call entry against the frozen table during a
// fixpoint round, without mutating anything: an exact match binds it; a
// recursive call or an evicted fingerprint binds the merged fallback; a
// genuinely new entry binds nothing (bottom) until the round barrier
// admits it.
func (s *Summary) resolveFrozen(ent *matrix.Matrix, recursive bool) *ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := ent.Fingerprint()
	if !recursive {
		for _, c := range s.contexts[fp] {
			if c.entry.Equal(ent) {
				return c
			}
		}
		for _, sb := range s.shared[fp] {
			if sb.ent.Equal(ent) {
				return sb.donor
			}
		}
		if s.maxContexts > 0 && !s.evicted[fp] {
			return nil // admitted (or aliased) at the barrier
		}
	}
	return s.merged // may be nil, or dormant with a bottom exit
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
	if changed && len(s.shared) > 0 {
		// The read-only premise behind every shared-exit alias just got
		// weaker: dissolve them. The mod-ref change dirties all callers of
		// this procedure, so the aliased entries are re-presented and
		// re-admitted under the sharpened bits.
		s.shared = nil
		s.exitsShared = 0
	}
	return changed
}

// ctxEntry snapshots a context's entry matrix pointer (immutable value).
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

// pruneContexts drops exact contexts the converged program does not bind
// (transient fixpoint states); the survivors are exactly what Contexts()
// returns afterwards. The merged fallback always survives: Replay needs
// it as the sound stand-in for entries outside the table.
func (s *Summary) pruneContexts(live map[*ProcContext]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.lru[:0]
	for _, c := range s.lru {
		if live[c] {
			kept = append(kept, c)
		} else {
			s.dropContextLocked(c)
		}
	}
	s.lru = kept
}

// Contexts returns the summary's contexts in a deterministic order: exact
// contexts sorted by the canonical content rendering of their entries,
// then the merged fallback (if any). Content order — not fingerprint
// order — so the sequence is comparable across Spaces, epochs, and
// seeded/cold runs: fingerprints incorporate interned IDs, and a seeded
// run interns the decoded summaries before the program's own matrices,
// which permuted fingerprint order run-to-run (Options.Seeds is a map).
// After Analyze returns only live exact contexts remain.
func (s *Summary) Contexts() []*ProcContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*ProcContext(nil), s.lru...)
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

// MergedEntry returns the context-insensitive entry view: the merged
// fallback's entry, or the single context's entry when no fallback exists
// (what the pre-context-table Summary.Entry field held). Nil for a
// procedure never called.
func (s *Summary) MergedEntry() *matrix.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged != nil {
		return s.merged.entry
	}
	if len(s.lru) == 1 {
		return s.lru[0].entry
	}
	return nil
}

// MergedExit returns the context-insensitive exit view (nil while bottom),
// symmetric to MergedEntry.
func (s *Summary) MergedExit() *matrix.Matrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged != nil {
		return s.merged.exit
	}
	if len(s.lru) == 1 {
		return s.lru[0].exit
	}
	return nil
}

// ContextStats reports the table's post-run shape: live exact contexts,
// whether the merged fallback exists, and how many evictions occurred.
func (s *Summary) ContextStats() (exact int, hasMerged bool, evictions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lru), s.merged != nil, s.evictions
}

// LazyStats reports the demand-driven side of the table: fallback
// activations (0 or 1), the fixpoint analyses the activated fallback
// consumed, and the live shared-exit aliases.
func (s *Summary) LazyStats() (activations, analyses, shared int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fbActivations, s.fbAnalyses, s.exitsShared
}

// CtxTableStats aggregates the context-table statistics of a whole
// analysis (reported in the result document and the bench/ layer
// counters, and pinned per corpus program by TestCorpusWorkCounts).
type CtxTableStats struct {
	// Exact counts live exact contexts; MergedProcs counts procedures
	// whose merged fallback exists; Evictions counts cap evictions.
	Exact, MergedProcs, Evictions int
	// FallbacksActivated counts procedures whose fallback found a consumer
	// (recursion, eviction redirect, or the drain barrier);
	// FallbackAnalyses counts the fixpoint analyses those fallbacks
	// consumed; ExitsShared counts live shared-exit aliases.
	FallbacksActivated, FallbackAnalyses, ExitsShared int
}

// ContextTableStats sums the per-summary context-table statistics over the
// whole analysis.
func (in *Info) ContextTableStats() CtxTableStats {
	var t CtxTableStats
	for _, s := range in.Summaries {
		e, m, ev := s.ContextStats()
		t.Exact += e
		if m {
			t.MergedProcs++
		}
		t.Evictions += ev
		act, ana, sh := s.LazyStats()
		t.FallbacksActivated += act
		t.FallbackAnalyses += ana
		t.ExitsShared += sh
	}
	return t
}
