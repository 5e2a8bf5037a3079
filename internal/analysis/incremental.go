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
// checks that the converged run confirmed every seed — the live contexts
// are exactly the imported ones, each still bound by a call site with its
// entry unchanged, and the merged fallback and the mod-ref bits ended
// exactly as imported. Any deviation means the callers of a seeded
// procedure present a different context set than the run the seeds came
// from, and the whole analysis transparently re-runs cold, so a seeded
// Analyze returns bit-identical results to an unseeded one by
// construction — warm runs only change how much fixpoint work is spent,
// never what is returned.
//
// Seeding is all-or-nothing per reachable closure: a seeded procedure that
// converges without re-analysis needs every callee's table populated
// too. importSeeds drops any seed whose closure is not fully available.
//
// Seeds carry no interned IDs (matrix.Encoded renders paths in paper
// notation), so they survive Space epochs, session handoffs, and — in
// principle — processes.

import (
	"fmt"
	"slices"
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

// ProcSeed is the exported converged state of one procedure's summary:
// the distinct exact contexts, the merged fallback, and the mod-ref
// classification. It is Space-free and deterministic (two exports of the
// same converged summary are deep-equal).
type ProcSeed struct {
	// Contexts lists the live exact contexts in creation (seq) order.
	Contexts []CtxSeed `json:"contexts,omitempty"`
	// Merged is the widened fallback context, if one exists.
	Merged *CtxSeed `json:"merged,omitempty"`

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
	return n + 3*len(ps.UpdateParams)
}

// ExportSeeds extracts the per-procedure summary records of a converged
// analysis. Procedures never called are omitted.
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
// procedure has no context.
func (s *Summary) exportSeed() *ProcSeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.exact) == 0 && s.merged == nil {
		return nil
	}
	encode := func(c *ProcContext) CtxSeed {
		cs := CtxSeed{Entry: c.entry.Encode()}
		if c.exit != nil {
			e := c.exit.Encode()
			cs.Exit = &e
		}
		return cs
	}
	ctxs := append([]*ProcContext(nil), s.exact...)
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i].seq < ctxs[j].seq })
	ps := &ProcSeed{
		UpdateParams:   append([]bool(nil), s.UpdateParams...),
		LinkParams:     append([]bool(nil), s.LinkParams...),
		AttachesParams: append([]bool(nil), s.AttachesParams...),
		ModifiesLinks:  s.ModifiesLinks,
	}
	for _, c := range ctxs {
		ps.Contexts = append(ps.Contexts, encode(c))
	}
	if s.merged != nil {
		m := encode(s.merged)
		ps.Merged = &m
	}
	return ps
}

// seededProc is one seed decoded into the run's Space. It is staged before
// commit (decode of the whole closure must succeed before any summary is
// touched) and, once adopted, is the record the post-run check compares
// against.
type seededProc struct {
	name     string
	ctxs     []*ProcContext // creation order
	merged   *ProcContext
	mergedFp matrix.Fp // the fallback entry's fingerprint at adoption
	seed     *ProcSeed
}

// decodeSeed re-interns one ProcSeed into the run's Space, validating
// shape invariants; it does not touch the summary yet.
func decodeSeed(sp *matrix.Space, name string, ps *ProcSeed, nparams int, mergedOnly bool) (*seededProc, error) {
	if len(ps.UpdateParams) != nparams || len(ps.LinkParams) != nparams || len(ps.AttachesParams) != nparams {
		return nil, fmt.Errorf("analysis: seed %s: mod-ref arity mismatch", name)
	}
	if mergedOnly && len(ps.Contexts) > 0 {
		return nil, fmt.Errorf("analysis: seed %s: exact contexts in merged mode", name)
	}
	d := &seededProc{name: name, seed: ps}
	decodeCtx := func(cs *CtxSeed, merged bool) (*ProcContext, error) {
		ent, err := matrix.DecodeIn(sp, cs.Entry)
		if err != nil {
			return nil, err
		}
		c := &ProcContext{entry: ent, merged: merged, seeded: !merged}
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
	if ps.Merged != nil {
		c, err := decodeCtx(ps.Merged, true)
		if err != nil {
			return nil, fmt.Errorf("analysis: seed %s merged: %w", name, err)
		}
		d.merged = c
	}
	return d, nil
}

// adoptSeed commits a decoded seed into a fresh summary (creation-order
// seq assignment reproduces the exported relative order).
func (s *Summary) adoptSeed(d *seededProc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range d.ctxs {
		c.seq = s.nextSeq()
		s.exact = append(s.exact, c)
	}
	if d.merged != nil {
		d.merged.seq = s.nextSeq()
		s.merged = d.merged
		d.mergedFp = d.merged.entry.Fingerprint()
	}
	copy(s.UpdateParams, d.seed.UpdateParams)
	copy(s.LinkParams, d.seed.LinkParams)
	copy(s.AttachesParams, d.seed.AttachesParams)
	s.ModifiesLinks = d.seed.ModifiesLinks
}

// importSeeds decodes and commits the usable subset of opts.Seeds before
// the fixpoint starts: seeds for procedures missing from the program,
// failing to decode, or whose reachable-callee closure is not itself
// fully seeded are dropped (those procedures analyze cold). Returns the
// validation records in sorted name order.
func importSeeds(e *engine, seeds map[string]*ProcSeed) []*seededProc {
	if len(seeds) == 0 {
		return nil
	}
	callees := ast.Callees(e.prog)
	decoded := map[string]*seededProc{}
	for name, ps := range seeds {
		decl := e.prog.Proc(name)
		if decl == nil {
			continue
		}
		d, err := decodeSeed(e.msp, name, ps, len(decl.Params), e.opts.mergedOnly)
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
	out := make([]*seededProc, 0, len(names))
	for _, name := range names {
		e.summaryFor(e.prog.Proc(name)).adoptSeed(decoded[name])
		out = append(out, decoded[name])
	}
	return out
}

// seedsHeld is the post-run validation: the converged run must have
// confirmed every committed seed — the live contexts exactly the imported
// ones, each still bound by a call site, the recording pass's own site
// bindings consistent with what was presented there, and the merged
// fallback and mod-ref bits exactly as imported. Any miss means the
// seeded tables were not the fixpoint of THIS program (a caller changed
// what it presents), and the result cannot be trusted to match a cold run
// bit-for-bit.
func (in *Info) seedsHeld() bool {
	if !in.sitesHeld {
		return false
	}
	for _, sp := range in.seeded {
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
	if len(s.exact) != len(sp.ctxs) {
		return false
	}
	for _, c := range sp.ctxs {
		if c.dropped || c.sites == 0 {
			return false
		}
	}
	if (s.merged != nil) != (sp.merged != nil) {
		return false
	}
	if s.merged != nil && s.merged.entry.Fingerprint() != sp.mergedFp {
		return false
	}
	return s.ModifiesLinks == sp.seed.ModifiesLinks &&
		slices.Equal(s.UpdateParams, sp.seed.UpdateParams) &&
		slices.Equal(s.LinkParams, sp.seed.LinkParams) &&
		slices.Equal(s.AttachesParams, sp.seed.AttachesParams)
}
