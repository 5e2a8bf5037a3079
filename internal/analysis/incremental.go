package analysis

// Incremental analysis: per-procedure summary export and seeding.
//
// A converged context table is a pure function of the procedure's own
// transfer function — its body plus everything it can reach through
// calls — and of the entries its callers present. The first part is the
// summary-store key (the caller hashes body + reachable-callee bodies
// into a cohort fingerprint, internal/service); the second part cannot
// be keyed, so seeding is a VALIDATED HINT, not a contract: Analyze runs
// the normal round-based fixpoint from the seeded tables, and afterwards
// checks that the converged run confirmed every seed — every imported
// context was re-presented and stayed live, no eviction occurred, the
// merged fallback and the mod-ref bits ended exactly as imported. Any
// deviation means the callers of a seeded procedure present a different
// context set than the run the seeds came from, and the whole analysis
// transparently re-runs cold, so a seeded Analyze returns bit-identical
// results to an unseeded one by construction — warm runs only change how
// much fixpoint work is spent, never what is returned.
//
// Seeding is all-or-nothing per reachable closure: the recording pass
// resolves calls read-only (lookupContext), so a seeded procedure that
// converges without re-analysis needs every callee's table populated
// too. importSeeds drops any seed whose closure is not fully available.
//
// Seeds carry no interned IDs (matrix.Encoded renders paths in paper
// notation), so they survive Space epochs, session handoffs, and — in
// principle — processes. Records from a run with cap evictions are not
// exportable: an evicted fingerprint redirect cannot be reproduced from
// content (only the fingerprint was kept), so ExportSeeds skips those
// procedures and the callers fall back to cold analysis for them.

import (
	"fmt"
	"sort"

	"repro/internal/matrix"
	"repro/internal/sil/ast"
)

// CtxSeed is one exported context: an entry matrix and its converged
// exit (nil exit = bottom: no terminating path from this entry).
type CtxSeed struct {
	Entry matrix.Encoded  `json:"entry"`
	Exit  *matrix.Encoded `json:"exit,omitempty"`
}

// SharedSeed is one exported shared-exit alias: a presented entry bound
// to the exit of the Donor-th exported context instead of a context of
// its own.
type SharedSeed struct {
	Entry matrix.Encoded `json:"entry"`
	Donor int            `json:"donor"`
}

// ProcSeed is the exported converged state of one procedure's summary:
// the exact context table, the merged fallback, the shared-exit aliases,
// and the mod-ref classification. It is Space-free and deterministic
// (two exports of the same converged summary are deep-equal).
type ProcSeed struct {
	// Contexts lists the live exact contexts in creation (seq) order.
	Contexts []CtxSeed `json:"contexts,omitempty"`
	// LRU lists indices into Contexts from least to most recently used.
	LRU []int `json:"lru,omitempty"`
	// Merged is the widened fallback context, if one exists.
	Merged *CtxSeed `json:"merged,omitempty"`
	// MergedActive preserves whether the fallback was live fixpoint work.
	MergedActive bool `json:"merged_active,omitempty"`
	// Shared lists the shared-exit aliases in canonical entry order.
	Shared []SharedSeed `json:"shared,omitempty"`

	UpdateParams   []bool `json:"update_params,omitempty"`
	LinkParams     []bool `json:"link_params,omitempty"`
	AttachesParams []bool `json:"attaches_params,omitempty"`
	ModifiesLinks  bool   `json:"modifies_links,omitempty"`
}

// SizeBytes approximates the in-memory footprint for store accounting.
func (ps *ProcSeed) SizeBytes() int {
	n := 64
	size := func(cs *CtxSeed) {
		n += cs.Entry.SizeBytes()
		if cs.Exit != nil {
			n += cs.Exit.SizeBytes()
		}
	}
	for i := range ps.Contexts {
		size(&ps.Contexts[i])
	}
	if ps.Merged != nil {
		size(ps.Merged)
	}
	for i := range ps.Shared {
		n += ps.Shared[i].Entry.SizeBytes() + 8
	}
	n += 8*len(ps.LRU) + 3*len(ps.UpdateParams)
	return n
}

// ExportSeeds extracts the per-procedure summary records of a converged
// analysis. Procedures whose table suffered cap evictions (or that were
// never called) are omitted.
func ExportSeeds(in *Info) map[string]*ProcSeed {
	out := make(map[string]*ProcSeed, len(in.Summaries))
	for name, s := range in.Summaries {
		if ps := s.exportSeed(); ps != nil {
			out[name] = ps
		}
	}
	return out
}

// exportSeed renders one summary's converged state, or nil when the
// summary is not exportable (cap evictions, never called, or an alias
// donor outside the live table).
func (s *Summary) exportSeed() *ProcSeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictions > 0 {
		return nil
	}
	if len(s.lru) == 0 && s.merged == nil {
		return nil
	}
	ctxs := append([]*ProcContext(nil), s.lru...)
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i].seq < ctxs[j].seq })
	idx := make(map[*ProcContext]int, len(ctxs))
	ps := &ProcSeed{
		UpdateParams:   append([]bool(nil), s.UpdateParams...),
		LinkParams:     append([]bool(nil), s.LinkParams...),
		AttachesParams: append([]bool(nil), s.AttachesParams...),
		ModifiesLinks:  s.ModifiesLinks,
	}
	for i, c := range ctxs {
		idx[c] = i
		cs := CtxSeed{Entry: c.entry.Encode()}
		if c.exit != nil {
			e := c.exit.Encode()
			cs.Exit = &e
		}
		ps.Contexts = append(ps.Contexts, cs)
	}
	for _, c := range s.lru {
		ps.LRU = append(ps.LRU, idx[c])
	}
	if s.merged != nil {
		cs := CtxSeed{Entry: s.merged.entry.Encode()}
		if s.merged.exit != nil {
			e := s.merged.exit.Encode()
			cs.Exit = &e
		}
		ps.Merged = &cs
		ps.MergedActive = s.merged.active
	}
	type flatAlias struct {
		key   string
		ent   *matrix.Matrix
		donor int
	}
	var aliases []flatAlias
	for _, bucket := range s.shared {
		for _, sb := range bucket {
			di, ok := idx[sb.donor]
			if !ok {
				return nil
			}
			aliases = append(aliases, flatAlias{canonicalKey(sb.ent), sb.ent, di})
		}
	}
	sort.Slice(aliases, func(i, j int) bool { return aliases[i].key < aliases[j].key })
	for _, a := range aliases {
		ps.Shared = append(ps.Shared, SharedSeed{Entry: a.ent.Encode(), Donor: a.donor})
	}
	return ps
}

// decodedSeed is one seed decoded into the run's Space, staged before
// commit (decode of the whole closure must succeed before any summary is
// touched).
type decodedSeed struct {
	name   string
	ctxs   []*ProcContext // creation order, seq unassigned
	lru    []int
	merged *ProcContext
	shared []sharedBinding // donor resolved against ctxs
	seed   *ProcSeed
}

// decodeSeed re-interns one ProcSeed into the run's Space, validating
// shape invariants; it does not touch the summary yet.
func decodeSeed(sp *matrix.Space, name string, ps *ProcSeed, nparams, maxContexts int) (*decodedSeed, error) {
	if len(ps.UpdateParams) != nparams || len(ps.LinkParams) != nparams || len(ps.AttachesParams) != nparams {
		return nil, fmt.Errorf("analysis: seed %s: mod-ref arity mismatch", name)
	}
	if maxContexts > 0 && len(ps.Contexts) > maxContexts {
		return nil, fmt.Errorf("analysis: seed %s: %d contexts over cap %d", name, len(ps.Contexts), maxContexts)
	}
	if maxContexts < 0 && len(ps.Contexts) > 0 {
		return nil, fmt.Errorf("analysis: seed %s: exact contexts in merged mode", name)
	}
	if len(ps.LRU) != len(ps.Contexts) {
		return nil, fmt.Errorf("analysis: seed %s: lru/context length mismatch", name)
	}
	d := &decodedSeed{name: name, seed: ps}
	decodeCtx := func(cs *CtxSeed, merged bool) (*ProcContext, error) {
		ent, err := matrix.DecodeIn(sp, cs.Entry)
		if err != nil {
			return nil, err
		}
		c := &ProcContext{entry: ent, merged: merged, active: !merged}
		if cs.Exit != nil {
			if c.exit, err = matrix.DecodeIn(sp, *cs.Exit); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
	for i := range ps.Contexts {
		c, err := decodeCtx(&ps.Contexts[i], false)
		if err != nil {
			return nil, fmt.Errorf("analysis: seed %s context %d: %w", name, i, err)
		}
		d.ctxs = append(d.ctxs, c)
	}
	seen := make([]bool, len(ps.Contexts))
	for _, li := range ps.LRU {
		if li < 0 || li >= len(ps.Contexts) || seen[li] {
			return nil, fmt.Errorf("analysis: seed %s: bad lru permutation", name)
		}
		seen[li] = true
	}
	d.lru = ps.LRU
	if ps.Merged != nil {
		c, err := decodeCtx(ps.Merged, true)
		if err != nil {
			return nil, fmt.Errorf("analysis: seed %s merged: %w", name, err)
		}
		c.active = ps.MergedActive
		d.merged = c
	}
	for i := range ps.Shared {
		sh := &ps.Shared[i]
		if sh.Donor < 0 || sh.Donor >= len(d.ctxs) {
			return nil, fmt.Errorf("analysis: seed %s alias %d: bad donor", name, i)
		}
		ent, err := matrix.DecodeIn(sp, sh.Entry)
		if err != nil {
			return nil, fmt.Errorf("analysis: seed %s alias %d: %w", name, i, err)
		}
		d.shared = append(d.shared, sharedBinding{ent: ent, donor: d.ctxs[sh.Donor]})
	}
	return d, nil
}

// seededProc is the validation record of one committed seed: the
// pointers and fingerprints the post-run check compares against.
type seededProc struct {
	name      string
	ctxs      []*ProcContext
	hasMerged bool
	mergedFp  matrix.Fp
	sharedN   int
	seed      *ProcSeed
}

// adoptSeed commits a decoded seed into a fresh summary (creation-order
// seq assignment reproduces the exported relative order) and returns the
// validation record.
func (s *Summary) adoptSeed(d *decodedSeed) seededProc {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range d.ctxs {
		c.seq = s.nextSeq()
		fp := c.entry.Fingerprint()
		if s.contexts == nil {
			s.contexts = make(map[matrix.Fp][]*ProcContext)
		}
		s.contexts[fp] = append(s.contexts[fp], c)
	}
	s.lru = s.lru[:0]
	for _, li := range d.lru {
		s.lru = append(s.lru, d.ctxs[li])
	}
	sp := seededProc{name: d.name, ctxs: d.ctxs, sharedN: len(d.shared), seed: d.seed}
	if d.merged != nil {
		d.merged.seq = s.nextSeq()
		s.merged = d.merged
		sp.hasMerged = true
		sp.mergedFp = d.merged.entry.Fingerprint()
	}
	for _, sb := range d.shared {
		if s.shared == nil {
			s.shared = make(map[matrix.Fp][]sharedBinding)
		}
		fp := sb.ent.Fingerprint()
		s.shared[fp] = append(s.shared[fp], sb)
		s.exitsShared++
	}
	copy(s.UpdateParams, d.seed.UpdateParams)
	copy(s.LinkParams, d.seed.LinkParams)
	copy(s.AttachesParams, d.seed.AttachesParams)
	s.ModifiesLinks = d.seed.ModifiesLinks
	return sp
}

// importSeeds decodes and commits the usable subset of opts.Seeds before
// the fixpoint starts: seeds for procedures missing from the program,
// failing to decode, or whose reachable-callee closure is not itself
// fully seeded are dropped (those procedures analyze cold). Returns the
// validation records in sorted name order.
func importSeeds(e *engine, seeds map[string]*ProcSeed) []seededProc {
	if len(seeds) == 0 {
		return nil
	}
	callees := ast.Callees(e.prog)
	decoded := map[string]*decodedSeed{}
	for name, ps := range seeds {
		decl := e.prog.Proc(name)
		if decl == nil {
			continue
		}
		d, err := decodeSeed(e.msp, name, ps, len(decl.Params), e.opts.MaxContexts)
		if err != nil {
			continue
		}
		decoded[name] = d
	}
	// Closure filter: drop any seed calling an unseeded procedure, to a
	// fixpoint (removal is monotone, so the result is order-independent).
	for changed := true; changed; {
		changed = false
		for name := range decoded {
			for _, c := range callees[name] {
				if c != name && decoded[c] == nil {
					delete(decoded, name)
					changed = true
					break
				}
			}
		}
	}
	names := make([]string, 0, len(decoded))
	for name := range decoded {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]seededProc, 0, len(names))
	for _, name := range names {
		s := e.summaryFor(e.prog.Proc(name))
		out = append(out, s.adoptSeed(decoded[name]))
	}
	return out
}

// seedsHeld is the post-run validation: the converged run must have
// confirmed every committed seed — all imported contexts re-presented
// and live, no context the seeds did not predict surviving the prune, no
// cap eviction, the merged fallback and mod-ref bits exactly as
// imported, and no alias churn. Any miss means the seeded tables were
// not the fixpoint of THIS program (a caller changed what it presents),
// and the result cannot be trusted to match a cold run bit-for-bit.
func (in *Info) seedsHeld() bool {
	for i := range in.seeded {
		sp := &in.seeded[i]
		s := in.Summaries[sp.name]
		if s == nil || !s.seedHeld(sp) {
			return false
		}
	}
	return true
}

func (s *Summary) seedHeld(sp *seededProc) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictions > 0 || len(s.lru) != len(sp.ctxs) {
		return false
	}
	for _, c := range sp.ctxs {
		if c.dropped {
			return false
		}
	}
	if (s.merged != nil) != sp.hasMerged {
		return false
	}
	if s.merged != nil && s.merged.entry.Fingerprint() != sp.mergedFp {
		return false
	}
	n := 0
	for _, bucket := range s.shared {
		n += len(bucket)
	}
	if n != sp.sharedN {
		return false
	}
	if s.ModifiesLinks != sp.seed.ModifiesLinks ||
		!boolsEqual(s.UpdateParams, sp.seed.UpdateParams) ||
		!boolsEqual(s.LinkParams, sp.seed.LinkParams) ||
		!boolsEqual(s.AttachesParams, sp.seed.AttachesParams) {
		return false
	}
	return true
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
