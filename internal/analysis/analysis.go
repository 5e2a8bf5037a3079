// Package analysis computes a path matrix for every program point of a SIL
// program — the core contribution of Hendren & Nicolau (§4). It implements:
//
//   - transfer functions for every basic handle statement (transfer.go),
//     validated against the paper's Figure 2;
//   - condition refinement for nil tests (refine.go);
//   - the iterative approximation for while loops (Figure 3) with the
//     widening bounds of path.Limits guaranteeing convergence;
//   - interprocedural analysis with the symbolic handles h*i (the caller's
//     i-th handle argument) and h**i (all stacked recursive arguments),
//     reproducing Figure 7's matrices pA and pB, via a worklist fixpoint
//     over per-procedure summaries;
//   - mod-ref classification of handle parameters into read-only and
//     update arguments (§5.2's refinement);
//   - structure verification: TREE/DAG/cycle verdicts on every structure
//     update (§3.1), reported as diagnostics.
//
// The engine requires normalized (basic-statement) programs; run
// types.Normalize first.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/sil/ast"
	"repro/internal/sil/token"
	"repro/internal/sil/types"
)

// Options tunes the analysis.
type Options struct {
	// Limits bounds the path-expression domain (zero value: DefaultLimits).
	Limits path.Limits
	// MaxLoopIters caps Figure 3's iteration as a backstop beyond widening.
	MaxLoopIters int
	// MaxWorklist scales the cap on total (procedure, context) item
	// analyses — the non-convergence backstop.
	MaxWorklist int
	// Workers bounds the worker pool of the round-based interprocedural
	// fixpoint. Work items are (procedure, context) pairs, so independent
	// procedures AND independent call contexts of the same procedure are
	// analyzed concurrently within a round. Rounds read a frozen snapshot
	// and apply updates at a deterministic barrier, so the result is
	// bit-identical for every pool size. 0 picks a default from the
	// machine.
	Workers int
	// ExternalRoots names main locals that the execution environment binds
	// to externally built structures before main runs (the paper's
	// "... build a tree at root ..." realized by a Setup function). They
	// start possibly-non-nil with unknown indegree, and — since the
	// builder may have aliased them — pairwise possibly related.
	ExternalRoots []string
	// Space selects the matrix/path Space the analysis interns into; nil
	// picks matrix.DefaultSpace(), the process-wide tables one-shot CLI
	// runs share. Long-lived services give each session worker its own
	// Space so epoch resets stay worker-local. The choice of Space never
	// affects results (matrices render content-based), so it is no part of
	// any result-cache key.
	Space *matrix.Space
	// Budgets bounds the work this run may consume (budget.go). Checked
	// only at round barriers; the zero value is unlimited. Budgets can
	// fail a run with ErrBudgetExceeded, never change a successful one,
	// so — like Workers — they are no part of any result-cache key.
	Budgets Budgets
	// Seeds provides converged per-procedure summaries from an earlier
	// run of a program containing the same procedures (incremental.go).
	// Seeds are validated hints: the fixpoint runs from the seeded tables
	// and the result is checked against every seed afterwards; on any
	// mismatch Analyze transparently re-runs cold, so seeding never
	// changes what is returned — only how much fixpoint work it costs.
	// Keying seeds correctly (procedure body + reachable callees + every
	// option above) is the caller's job; internal/service does.
	Seeds map[string]*ProcSeed

	// mergedOnly binds every call to the callee's merged fallback — the
	// paper's single-summary mode. Tests set it (export_test.go) as the
	// coarse reference that context-sensitive results must stay within.
	mergedOnly bool
}

// withDefaults fills the scalar knobs. It deliberately leaves Space alone:
// the process-global fallback is bound in exactly one place (Analyze).
func (o Options) withDefaults() Options {
	if o.Limits == (path.Limits{}) {
		o.Limits = path.DefaultLimits
	}
	if o.MaxLoopIters == 0 {
		o.MaxLoopIters = 40
	}
	if o.MaxWorklist == 0 {
		o.MaxWorklist = 400
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Diagnostic is a structure-verification or safety finding.
type Diagnostic struct {
	Pos   token.Pos
	Level string // "warn" or "error"
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Level, d.Msg)
}

// Summary is the interprocedural abstraction of one procedure: the
// context table (see context.go), one entry→exit pair per call site plus
// the merged fallback for recursive calls, and the per-procedure mod-ref
// classification, which stays joined over every context (a parameter is an
// update argument if ANY context may write through it). During the concurrent fixpoint, mu
// guards every mutable field; matrices are immutable once published, so
// workers snapshot pointers under the lock and read them lock-free. After
// Analyze returns, summaries are quiescent and may be read directly.
type Summary struct {
	mu sync.Mutex

	Proc *ast.ProcDecl
	// UpdateParams[i] reports that the i-th parameter is an update argument
	// (§5.2): some write (value or link) may occur through it. Non-handle
	// parameters are always false.
	UpdateParams []bool
	// LinkParams[i] reports that a structure update (a.f := …) may occur
	// through the i-th parameter.
	LinkParams []bool
	// AttachesParams[i] reports that the i-th argument's node itself may
	// gain a parent inside the callee (it appears as the right side of a
	// structure update).
	AttachesParams []bool
	// ModifiesLinks reports any structure update anywhere in the procedure
	// or its callees.
	ModifiesLinks bool
	// HandleParamIdx maps handle-parameter order (1-based symbolic index)
	// to parameter positions.
	HandleParamIdx []int

	// The context table (context.go): live exact contexts in creation
	// order, and the merged fallback, created at the first same-SCC
	// presentation.
	exact  []*ProcContext
	merged *ProcContext
	// fbAnalyses counts the fixpoint analyses of the merged fallback.
	fbAnalyses int
	// mergedMemo memoizes entries proven to fold into the fallback without
	// growing it (fingerprint-keyed, structural fallback on collision).
	mergedMemo  map[matrix.Fp][]*matrix.Matrix
	mergedMemoN int
	// seqCounter issues ProcContext.seq values (barrier-only mutation).
	seqCounter int
}

// ReadOnlyParam reports whether parameter i is read-only (§5.2).
func (s *Summary) ReadOnlyParam(i int) bool {
	return i < len(s.UpdateParams) && !s.UpdateParams[i]
}

// modref is a consistent snapshot of a summary's mod-ref classification.
type modref struct {
	update, links, attaches []bool
	modifiesLinks           bool
}

func (s *Summary) modrefSnapshot() modref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return modref{
		update:        append([]bool(nil), s.UpdateParams...),
		links:         append([]bool(nil), s.LinkParams...),
		attaches:      append([]bool(nil), s.AttachesParams...),
		modifiesLinks: s.ModifiesLinks,
	}
}

// Info is the analysis result.
type Info struct {
	Prog *ast.Program
	Opts Options
	// Before and After give the path matrix at the program point
	// immediately before / after each statement, merged over every live
	// call context of the converged fixpoint.
	Before map[ast.Stmt]*matrix.Matrix
	After  map[ast.Stmt]*matrix.Matrix
	// Summaries maps procedure names to their fixpoint summaries.
	Summaries map[string]*Summary
	// Diags are the structure-verification findings, deduplicated.
	Diags []Diagnostic

	// FixpointSteps counts the (procedure, context) item analyses the
	// fixpoint consumed — the dirty-work metric of incremental runs (a
	// fully warm resubmit costs 0; a cold run costs the whole program).
	FixpointSteps int
	// SeededProcs counts the summaries seeded from Options.Seeds that
	// this run committed before the fixpoint.
	SeededProcs int
	// SeedsFellBack reports that a seeded run failed post-run validation
	// and this result came from the automatic cold re-run.
	SeedsFellBack bool

	stmtProc map[ast.Stmt]string
	seeded   []*seededProc
	// sites maps every call node of Prog to its call site (context.go);
	// read-only once Analyze returns, so Replay resolves by site too.
	sites map[ast.Node]*callSite
	// sitesHeld reports that the recording pass bound every call it met,
	// consistently with the presentations (a seed-check input).
	sitesHeld bool
}

// ProcOf returns the name of the procedure containing the statement.
func (in *Info) ProcOf(s ast.Stmt) (string, bool) {
	name, ok := in.stmtProc[s]
	return name, ok
}

// PathSpace returns the path.Space this analysis interned into — consumers
// building fresh path expressions against the Info's matrices (e.g. the
// interference analysis) must intern there.
func (in *Info) PathSpace() *path.Space {
	// Analyze binds Opts.Space before constructing the Info, so a real
	// Info always carries its Space; no global fallback.
	return in.Opts.Space.Paths()
}

// Shape returns the worst structure estimate over every program point of
// the whole program. A temporary DAG (the §1 node swap) degrades this
// verdict even when the structure recovers; see ExitShape for the estimate
// at main's exit.
func (in *Info) Shape() matrix.Shape {
	worst := matrix.ShapeTree
	for _, m := range in.After {
		if m != nil && m.Shape() > worst {
			worst = m.Shape()
		}
	}
	return worst
}

// ExitShape returns the structure estimate at the end of main — TREE for
// programs that only pass through temporary violations.
func (in *Info) ExitShape() matrix.Shape {
	main := in.Prog.Proc("main")
	if main == nil || len(main.Body.Stmts) == 0 {
		return matrix.ShapeTree
	}
	m := in.After[main.Body.Stmts[len(main.Body.Stmts)-1]]
	if m == nil {
		return matrix.ShapeTree
	}
	return m.Shape()
}

// DiagStrings renders diagnostics deterministically.
func (in *Info) DiagStrings() []string {
	out := make([]string, len(in.Diags))
	for i, d := range in.Diags {
		out[i] = d.String()
	}
	sort.Strings(out)
	return out
}

// Analyze runs the whole-program analysis. The program must be checked and
// normalized; Analyze verifies the basic-statement invariants first.
//
// The interprocedural fixpoint is round-based (bulk-synchronous) over
// (procedure, context) work items: within a round, opts.Workers goroutines
// analyze the dirty items in parallel against a FROZEN snapshot of every
// summary — each analysis stages its writes (call entries, exit
// projection, mod-ref flags) into a private buffer instead of mutating
// shared state. At the round barrier the staged updates apply sequentially
// in a canonical, content-sorted order. Because in-round reads see only
// the snapshot and the barrier is deterministic, the converged result is
// bit-identical for every worker-pool size — unlike a chaotic worklist,
// where the order in which joins meet the widening changes which (equally
// sound) fixpoint the merged summaries land on.
//
// Work items are born on demand (context.go): an exact context when a call
// site's entry needs one, the merged fallback at the first same-SCC call.
// Dependencies are context-granular (engine.ctxDeps), so a caller bound to
// an exact context is not re-run by the fallback's widening ladder, and
// exact items of a recursive SCC are parked while that ladder converges
// (deferBehindFallbacks). All of this is decided at barriers from barrier
// state only, so the bit-identical-across-workers property is preserved.
//
// Diagnostics and the Before/After matrices are collected afterwards by a
// sequential closure pass over the context bindings reachable from main.
//
// ctx and opts.Budgets bound the run (budget.go): both are checked at
// round barriers and between recording-pass items, returning ErrCanceled /
// ErrBudgetExceeded. A nil ctx means context.Background(). Interrupts
// never alter a successful result's bytes — they only stop runs that would
// otherwise keep working.
func Analyze(ctx context.Context, prog *ast.Program, opts Options) (*Info, error) {
	ctx = background(ctx)
	if err := types.VerifyBasic(prog); err != nil {
		return nil, fmt.Errorf("analysis: program is not in basic form: %w", err)
	}
	main := prog.Proc("main")
	if main == nil {
		return nil, fmt.Errorf("analysis: no main procedure")
	}
	opts = opts.withDefaults()
	if opts.Space == nil {
		// The one sanctioned global-Space binding: Analyze is the library's
		// entry point, and a nil Options.Space is the documented "one-shot
		// process-wide tables" contract for CLI runs and tests. Everything
		// downstream (engine, entry matrices, Info.PathSpace) reads the
		// Space from the defaulted Options and never falls back again.
		opts.Space = matrix.DefaultSpace() //sillint:allow spacediscipline documented nil-Space contract, bound only here
	}
	info, err := analyzeOnce(ctx, prog, main, opts)
	if err == nil && (info.SeededProcs == 0 || info.seedsHeld()) {
		return info, nil
	}
	if err != nil && (len(opts.Seeds) == 0 || errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded)) {
		// An interrupted seeded run must not trigger the cold fallback:
		// the caller is gone or out of budget either way.
		return nil, err
	}
	// A seed was not confirmed by the converged run: the callers of some
	// seeded procedure present a different context set than the run the
	// seeds came from, so the warm result may not match a cold run
	// bit-for-bit. Re-run cold (same Space; the stale interned paths are
	// reclaimed by the session's normal epoch resets).
	cold := opts
	cold.Seeds = nil
	info, err = analyzeOnce(ctx, prog, main, cold)
	if info != nil {
		info.SeedsFellBack = true
	}
	return info, err
}

// analyzeOnce is one full fixpoint + recording pass; Analyze wraps it
// with seed validation and the cold re-run.
func analyzeOnce(ctx context.Context, prog *ast.Program, main *ast.ProcDecl, opts Options) (*Info, error) {
	eng := newEngine(ctx, prog, opts, &Info{
		Prog:      prog,
		Opts:      opts,
		Before:    map[ast.Stmt]*matrix.Matrix{},
		After:     map[ast.Stmt]*matrix.Matrix{},
		Summaries: map[string]*Summary{},
		stmtProc:  map[ast.Stmt]string{},
		sites:     registerSites(prog),
	})
	eng.budget *= len(eng.info.sites) + 1
	for _, d := range prog.Decls {
		walkStmts(d.Body, func(s ast.Stmt) { eng.info.stmtProc[s] = d.Name })
	}
	eng.info.seeded = importSeeds(eng, opts.Seeds)
	eng.info.SeededProcs = len(eng.info.seeded)
	var work []item
	rootCtx, isNew := eng.summaryFor(main).rootContext(entryForMain(main, opts), opts)
	eng.rootCtx = rootCtx
	if isNew {
		work = append(work, item{"main", rootCtx})
	}
	for len(work) > 0 {
		// Barrier interrupt point: cancellation and work budgets are only
		// observed here, between rounds, so an interrupted run never
		// exposes scheduling-dependent partial state.
		if err := eng.checkInterrupt(); err != nil {
			return nil, err
		}
		if err := eng.checkRoundBudget(); err != nil {
			return nil, err
		}
		eng.steps += len(work)
		if eng.steps > eng.budget {
			return nil, fmt.Errorf("analysis: fixpoint did not converge in %d item analyses", eng.budget)
		}
		for _, it := range work {
			if it.ctx.merged {
				eng.summary(it.name).noteFallbackAnalysis()
			}
		}
		stages := eng.runRound(work)
		eng.rounds++
		work = eng.applyRound(work, stages)
	}
	eng.info.FixpointSteps = eng.steps
	// Final sequential recording pass: a breadth-first closure over the
	// (procedure, context) bindings reachable from main's root context.
	// Each reached item is replayed once; record() merges the matrices of
	// a procedure's contexts pointwise, and calls resolve by site, so the
	// pass cannot perturb the fixpoint.
	rec := &analyzer{eng: eng, recording: true}
	recorded := map[item]bool{}
	queue := []item{{"main", eng.rootCtx}}
	rec.onCall = func(it item) {
		if !recorded[it] {
			queue = append(queue, it)
		}
	}
	for len(queue) > 0 {
		// The recording pass replays one item per iteration, so between
		// items is the sequential analogue of the round barrier.
		if err := eng.checkInterrupt(); err != nil {
			return nil, err
		}
		it := queue[0]
		queue = queue[1:]
		if recorded[it] {
			continue
		}
		recorded[it] = true
		rec.reanalyze(it)
	}
	eng.info.sitesHeld = eng.replayedSitesHeld()
	return eng.info, nil
}

// item is one unit of fixpoint work: a procedure analyzed against one of
// its call contexts.
type item struct {
	name string
	ctx  *ProcContext
}

// engine is the state shared by every worker of one Analyze run: the
// program, the round-based fixpoint bookkeeping, and the result under
// construction. During a round, workers only read summary state (under the
// per-summary locks) and only write their private staging buffers; mu
// guards the few shared tables that may grow mid-round (summary creation,
// diagnostics).
type engine struct {
	prog *ast.Program
	opts Options
	info *Info
	// msp/psp are the run's interning Spaces (opts.Space and its path
	// Space), resolved once so transfer functions don't re-derive them.
	msp *matrix.Space
	psp *path.Space

	mu sync.Mutex
	// procDeps maps a callee name to its caller items: when the callee's
	// mod-ref bits sharpen, every registered caller re-runs. Mutated only
	// at round barriers.
	procDeps map[string]map[item]bool
	// ctxDeps maps one callee CONTEXT to the caller items bound to it —
	// the exit-granular dependency edge: a context's exit growth re-runs
	// only the callers that actually consume that context, so a caller bound to an exact context is insulated from the
	// fallback's widening ladder. Registrations persist (a stale edge
	// costs a spurious re-run, never a missed one). Barrier-only mutation.
	ctxDeps map[*ProcContext]map[item]bool
	// deferred holds dirty exact-context items parked while a fallback of
	// their procedure's SCC is still converging: inside a recursive cycle
	// the exact context's body re-reads the fallback exit every round, so
	// analyzing it before the fallback ladder stabilizes only burns passes
	// on approximations that are immediately invalidated. Released when
	// the fallback leaves the work list (or, as a progress guarantee, when
	// nothing else is runnable). Barrier-only mutation.
	deferred map[item]bool
	diagSet  map[string]bool
	steps    int
	budget   int
	// ctx, rounds, and internBase drive the barrier interrupt checks
	// (budget.go): ctx is the caller's cancellation scope (Background for
	// Replay and nil-ctx callers), rounds counts completed barriers, and
	// internBase is the Space's interned-path population at engine
	// creation, so the intern budget charges only this run's growth.
	ctx        context.Context
	rounds     int
	internBase int
	// rootCtx is main's entry context, the recording pass's seed.
	rootCtx *ProcContext
	// keyCache memoizes canonicalKey by matrix fingerprint (structural
	// Equal fallback on collision). Barrier-only access.
	keyCache map[matrix.Fp][]keyEntry
	// scc maps each procedure to its static call-graph SCC id (computed
	// once, read-only afterwards): calls within one SCC — self or mutual
	// recursion — bind the merged fallback context (see context.go).
	scc map[string]int
	// presented maps each caller item to the call sites its latest run
	// presented at, so a re-run or a departure can withdraw the rest.
	// Barrier-only mutation.
	presented map[item][]*callSite
	// replayed lists the sites the recording pass bound itself, and
	// unresolved reports a recording-pass call it could not bind; both
	// feed the seed check (seedsHeld).
	replayed   []*callSite
	unresolved bool
}

// stagedEntry is one call-site context presentation, applied at the round
// barrier. site is nil for a recursive (fallback-bound) presentation; seen
// is the context the presentation resolved to in-round.
type stagedEntry struct {
	site   *callSite
	callee string
	ent    *matrix.Matrix
	caller item
	seen   *ProcContext
	key    string // canonical content key of a recursive entry, filled at the barrier
}

// stagedUpdates collects everything one item's in-round analysis wants to
// write: the call entries it presented, its exit projection, and the
// mod-ref flags it derived for its own procedure. Buffers are private to
// the analyzing goroutine until the barrier.
type stagedUpdates struct {
	entries       []stagedEntry
	exit          *matrix.Matrix // projected exit, nil while bottom
	modUpdate     map[int]bool   // parameter positions flagged as update
	modLink       map[int]bool
	modAttach     map[int]bool
	modifiesLinks bool
}

func (st *stagedUpdates) flagParam(m map[int]bool, pos int) map[int]bool {
	if m == nil {
		m = map[int]bool{}
	}
	m[pos] = true
	return m
}

// runRound analyzes every work item in parallel against the frozen summary
// state, returning one staging buffer per item (indexed like work).
func (e *engine) runRound(work []item) []*stagedUpdates {
	stages := make([]*stagedUpdates, len(work))
	workers := e.opts.Workers
	if workers > len(work) {
		workers = len(work)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers are muted: diagnostics from intermediate fixpoint
			// states would depend on the iteration strategy; the recording
			// pass re-derives them from the converged summaries.
			a := &analyzer{eng: e, mute: true}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(work) {
					return
				}
				a.st = &stagedUpdates{}
				a.reanalyze(work[i])
				stages[i] = a.st
			}
		}()
	}
	wg.Wait() //sillint:allow ctxflow round barrier by design: workers always drain their share, cancellation lands at the next round boundary
	return stages
}

// applyRound applies the staged updates of one round sequentially and
// returns the next round's work list. Every ordering here is canonical
// (site pre-order, content-sorted recursive entries, work-order exits,
// context sequence numbers), so the resulting state — and therefore the
// whole fixpoint — does not depend on how many workers ran the round.
func (e *engine) applyRound(work []item, stages []*stagedUpdates) []item {
	lim := e.opts.Limits
	dirty := map[item]bool{}
	dirtyProcs := map[string]bool{}

	// 1. Record each item's latest presentation per site (joined within the
	// item: a call inside a while loop presents once per iteration),
	// withdraw it from the sites its run no longer reached, and rebind the
	// touched sites.
	var recs, siteReqs []stagedEntry
	var touched []*callSite
	touch := func(cs *callSite) {
		if !cs.touched {
			cs.touched = true
			touched = append(touched, cs)
		}
	}
	ran := make(map[item]bool, len(work))
	for i, st := range stages {
		it := work[i]
		ran[it] = true
		var sites []*callSite
		for _, se := range st.entries {
			e.addProcDep(se.callee, it)
			if se.site == nil {
				se.key = e.canonicalKeyCached(se.ent)
				recs = append(recs, se)
				continue
			}
			siteReqs = append(siteReqs, se)
			if slices.Contains(sites, se.site) {
				j := se.site.presentation(it).Merge(se.ent)
				j.Widen(lim)
				se.site.setPresentation(it, j)
				continue
			}
			sites = append(sites, se.site)
			se.site.setPresentation(it, se.ent)
			touch(se.site)
		}
		for _, cs := range e.presented[it] {
			if !slices.Contains(sites, cs) && cs.withdraw(it) {
				touch(cs)
			}
		}
		e.presented[it] = sites
	}
	// Rebind in site order; a context that leaves the table withdraws its
	// own presentations, which may touch further sites.
	for len(touched) > 0 {
		batch := touched
		touched = nil
		sort.Slice(batch, func(i, j int) bool { return batch[i].idx < batch[j].idx })
		for _, cs := range batch {
			cs.touched = false
			e.rebind(cs, ran, dirty, touch)
		}
	}
	// A presenter re-runs when its site now binds a context it did not see
	// in-round — unless that context is still bottom: then its first exit
	// fires the ctxDeps edge instead.
	for _, se := range siteReqs {
		if c := se.site.ctx; c != nil && !se.caller.ctx.dropped {
			e.addCtxDep(c, se.caller)
			if c != se.seen && c.exit != nil {
				dirty[se.caller] = true
			}
		}
	}

	// 2. Recursive presentations bind the merged fallback, in canonical
	// order: sorted by callee and the entry's content rendering
	// (fingerprints would not do — they incorporate intern IDs, which
	// depend on process history).
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].callee != recs[j].callee {
			return recs[i].callee < recs[j].callee
		}
		return recs[i].key < recs[j].key
	})
	for _, se := range recs {
		fb, grew := e.summary(se.callee).bindFallback(se.ent, lim, !se.caller.ctx.merged)
		e.addCtxDep(fb, se.caller)
		if grew {
			dirty[item{se.callee, fb}] = true
		}
	}

	// 3. Apply exit projections (one item owns one context, so these are
	// pairwise independent). An exit change re-runs exactly the items
	// bound to that context — context-granular, so exact-context callers
	// never chase the fallback's widening ladder.
	for i, st := range stages {
		if st.exit == nil || work[i].ctx.dropped {
			continue
		}
		it := work[i]
		if e.summary(it.name).updateCtxExit(it.ctx, st.exit, lim) {
			for dep := range e.ctxDeps[it.ctx] {
				dirty[dep] = true
			}
		}
	}

	// 4. Apply mod-ref flags (monotone booleans; order-free). Mod-ref
	// stays per-procedure, so a change re-runs every registered caller.
	for i, st := range stages {
		if e.summary(work[i].name).applyModref(st) {
			dirtyProcs[work[i].name] = true
		}
	}

	for p := range dirtyProcs {
		for it := range e.procDeps[p] {
			dirty[it] = true
		}
	}
	// Fold previously deferred items back in; the partition below decides
	// afresh whether their SCC's fallback still churns.
	for it := range e.deferred {
		dirty[it] = true
	}
	e.deferred = map[item]bool{}
	next := make([]item, 0, len(dirty))
	for it := range dirty {
		if !it.ctx.dropped {
			next = append(next, it)
		}
	}
	sort.Slice(next, func(i, j int) bool {
		if next[i].name != next[j].name {
			return next[i].name < next[j].name
		}
		return next[i].ctx.seq < next[j].ctx.seq
	})
	return e.deferBehindFallbacks(next)
}

// rebind recomputes a touched site's entry and binds it in the order of
// context.go: the context it binds if the entry is unchanged, else a live
// context with that entry, else its own context grown in place, else a new
// one. Contexts needing analysis go into dirty, and so do presenters that
// did not run this round (ran) when the site moves to a context with an
// exit; a context no site binds any more leaves the table and withdraws
// its own presentations (touch).
func (e *engine) rebind(cs *callSite, ran, dirty map[item]bool, touch func(*callSite)) {
	lim := e.opts.Limits
	sum := e.summary(cs.callee)
	old := cs.ctx
	ent := cs.entry(lim)
	var c *ProcContext
	switch {
	case ent == nil:
		// No presenter left: the site binds nothing.
	case old != nil && old.entry.Equal(ent):
		return
	default:
		if c = sum.findExact(ent); c == nil {
			fbGrew := false
			if old != nil && old.sites == 1 && !old.seeded {
				c = old
				fbGrew = sum.regrow(c, ent, lim)
			} else {
				c, fbGrew = sum.newContext(ent, lim)
			}
			dirty[item{cs.callee, c}] = true
			if fbGrew {
				dirty[item{cs.callee, sum.fallback()}] = true
			}
		}
	}
	if c == old {
		return
	}
	cs.ctx = c
	if c != nil {
		c.sites++
		for _, p := range cs.pres {
			e.addCtxDep(c, p.caller)
			if c.exit != nil && !ran[p.caller] {
				dirty[p.caller] = true
			}
		}
	}
	if old == nil {
		return
	}
	if old.sites--; old.sites == 0 {
		sum.dropContext(old)
		it := item{cs.callee, old}
		for _, o := range e.presented[it] {
			if o.withdraw(it) {
				touch(o)
			}
		}
		delete(e.presented, it)
	}
}

// deferBehindFallbacks parks exact-context items whose procedure's SCC has
// a fallback in the work list: a recursive cycle's exact contexts re-read
// the fallback exit on every pass, so they are analyzed only once the
// fallback ladder has stabilized — the scheduling change that lets context
// mode track merged-mode cost. If nothing else is runnable the deferred
// items run anyway (progress guarantee), so convergence is unaffected; the
// partition is a pure function of the barrier state, so determinism across
// worker counts is preserved.
func (e *engine) deferBehindFallbacks(next []item) []item {
	fbSCC := map[int]bool{}
	for _, it := range next {
		if it.ctx.merged {
			fbSCC[e.scc[it.name]] = true
		}
	}
	if len(fbSCC) == 0 {
		return next
	}
	runnable := make([]item, 0, len(next))
	var parked []item
	for _, it := range next {
		if !it.ctx.merged && fbSCC[e.scc[it.name]] {
			parked = append(parked, it)
		} else {
			runnable = append(runnable, it)
		}
	}
	if len(runnable) == 0 {
		return next
	}
	for _, it := range parked {
		e.deferred[it] = true
	}
	return runnable
}

// sameSCC reports whether a call from caller to callee stays inside one
// call-graph SCC (i.e. is part of a recursive cycle).
func (e *engine) sameSCC(caller, callee string) bool {
	return e.scc[caller] != 0 && e.scc[caller] == e.scc[callee]
}

// callGraphSCC computes the strongly connected components of the static
// call graph (SIL has no indirect calls, so the AST graph is exact) with
// Tarjan's algorithm. Components are numbered from 1; procedures missing
// from the program map to 0, which sameSCC never matches.
func callGraphSCC(prog *ast.Program) map[string]int {
	callees := ast.Callees(prog)
	scc := map[string]int{}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next, comp := 0, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range callees[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			comp++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc[w] = comp
				if w == v {
					break
				}
			}
		}
	}
	for _, d := range prog.Decls {
		if _, ok := index[d.Name]; !ok {
			strongconnect(d.Name)
		}
	}
	return scc
}

// newEngine threads the caller's context at construction so every engine
// has the lifetime its caller chose; a nil ctx (Replay, whose recording
// pass observes no interrupt points) defaults through background().
func newEngine(ctx context.Context, prog *ast.Program, opts Options, info *Info) *engine {
	msp := opts.Space // non-nil: every caller passes Analyze-defaulted Options
	e := &engine{
		prog:      prog,
		opts:      opts,
		info:      info,
		msp:       msp,
		psp:       msp.Paths(),
		ctx:       background(ctx),
		procDeps:  map[string]map[item]bool{},
		ctxDeps:   map[*ProcContext]map[item]bool{},
		deferred:  map[item]bool{},
		diagSet:   map[string]bool{},
		keyCache:  map[matrix.Fp][]keyEntry{},
		presented: map[item][]*callSite{},
	}
	e.internBase = e.psp.InternedCount()
	if prog != nil {
		e.scc = callGraphSCC(prog)
	}
	// The budget caps total item analyses as a non-convergence backstop;
	// analyzeOnce scales it by the program's call sites + 1, which bound
	// the live contexts per procedure.
	e.budget = opts.MaxWorklist * 8
	return e
}

// keyEntry is one canonicalKey cache line.
type keyEntry struct {
	m   *matrix.Matrix
	key string
}

// canonicalKeyCached memoizes canonicalKey by fingerprint: at and near
// the fixpoint the same entries are re-presented every round, and the
// rendering is the barrier's main cost.
func (e *engine) canonicalKeyCached(m *matrix.Matrix) string {
	fp := m.Fingerprint()
	for _, ke := range e.keyCache[fp] {
		if ke.m.Equal(m) {
			return ke.key
		}
	}
	key := canonicalKey(m)
	e.keyCache[fp] = append(e.keyCache[fp], keyEntry{m, key})
	return key
}

// canonicalKey renders a matrix in a purely content-based, deterministic
// form — the barrier's sort key for staged call entries. (Fingerprints
// would not do: they incorporate interned IDs, which depend on the
// process's interning history.)
func canonicalKey(m *matrix.Matrix) string {
	hs := append([]matrix.Handle(nil), m.Handles()...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", m.StickyShape())
	for _, h := range hs {
		a := m.Attr(h)
		fmt.Fprintf(&b, "%s=%d,%d|", h, a.Nil, a.Indeg)
	}
	for _, r := range hs {
		for _, c := range hs {
			if e := m.Get(r, c); !e.IsEmpty() {
				fmt.Fprintf(&b, "%s>%s:%s|", r, c, e)
			}
		}
	}
	return b.String()
}

// summary returns the summary for name, or nil.
func (e *engine) summary(name string) *Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info.Summaries[name]
}

// summaryFor returns the summary for the procedure, creating it (with an
// empty context table) on first sighting.
func (e *engine) summaryFor(d *ast.ProcDecl) *Summary {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.info.Summaries[d.Name]
	if !ok {
		s = &Summary{
			Proc:           d,
			UpdateParams:   make([]bool, len(d.Params)),
			LinkParams:     make([]bool, len(d.Params)),
			AttachesParams: make([]bool, len(d.Params)),
			HandleParamIdx: handleParams(d),
		}
		e.info.Summaries[d.Name] = s
	}
	return s
}

// addProcDep records that it calls the named procedure (and therefore
// consumes its mod-ref bits). Called only from round barriers
// (single-threaded), but locked for uniformity.
func (e *engine) addProcDep(name string, it item) {
	e.mu.Lock()
	if e.procDeps[name] == nil {
		e.procDeps[name] = map[item]bool{}
	}
	e.procDeps[name][it] = true
	e.mu.Unlock()
}

// addCtxDep records that it is bound to the context (and therefore
// consumes its exit). Barrier-only.
func (e *engine) addCtxDep(ctx *ProcContext, it item) {
	if e.ctxDeps[ctx] == nil {
		e.ctxDeps[ctx] = map[item]bool{}
	}
	e.ctxDeps[ctx][it] = true
}

// analyzer is the per-worker view of an engine: the work item currently
// being analyzed plus the staging/recording/muting state. Workers never
// share an analyzer value.
type analyzer struct {
	eng *engine
	// st, when non-nil, receives this item's writes (call entries, exit,
	// mod-ref flags) instead of mutating summaries — the in-round fixpoint
	// mode; the engine applies the buffer at the round barrier.
	st *stagedUpdates
	// recording enables Before/After capture (final pass only). A
	// recording analyzer resolves call contexts read-only and never
	// mutates summaries.
	recording bool
	// onCall, when set on a recording analyzer, receives the (procedure,
	// context) binding of every call site — the recording pass uses it to
	// close over the reachable bindings.
	onCall func(item)
	// sink, when non-nil, receives before-matrices instead of info.Before
	// (used by Replay).
	sink map[ast.Stmt]*matrix.Matrix
	// mute suppresses diagnostics (replays re-traverse analyzed code).
	mute bool
	// cur is the procedure under analysis; curSum caches its summary so the
	// per-statement transfer path does not take the engine lock; curItem is
	// the work item, recorded as the dependent of every call it makes.
	cur     *ast.ProcDecl
	curSum  *Summary
	curItem item
}

// currentSummary returns the summary of the procedure under analysis.
func (a *analyzer) currentSummary() *Summary {
	if a.curSum != nil && a.curSum.Proc == a.cur {
		return a.curSum
	}
	return a.eng.summary(a.cur.Name)
}

// Replay re-runs the abstract transformers over a statement sequence from
// an explicit starting matrix, returning the matrix before every statement
// in the sequence (including nested ones) and the final matrix. §5.3 uses
// it to obtain Figure 9's per-statement matrices for U and V from the same
// initial point, independent of the sequential order the program text has.
func (in *Info) Replay(procName string, p0 *matrix.Matrix, seq []ast.Stmt) (map[ast.Stmt]*matrix.Matrix, *matrix.Matrix) {
	d := in.Prog.Proc(procName)
	a := &analyzer{
		eng:       newEngine(nil, in.Prog, in.Opts, in),
		recording: true,
		mute:      true, // replays must not duplicate diagnostics
		sink:      map[ast.Stmt]*matrix.Matrix{},
		cur:       d,
	}
	m := p0.Copy()
	for _, s := range seq {
		m = a.stmt(m, s)
	}
	return a.sink, m
}

func (a *analyzer) diag(pos token.Pos, level, msg string) {
	if a.mute {
		return
	}
	d := Diagnostic{Pos: pos, Level: level, Msg: msg}
	key := d.String()
	e := a.eng
	e.mu.Lock()
	if !e.diagSet[key] {
		e.diagSet[key] = true
		e.info.Diags = append(e.info.Diags, d)
	}
	e.mu.Unlock()
}

// handleParams returns the positions of handle parameters.
func handleParams(d *ast.ProcDecl) []int {
	var out []int
	for i, p := range d.Params {
		if p.Type == ast.HandleT {
			out = append(out, i)
		}
	}
	return out
}

// entryForMain builds main's entry matrix: every local starts definitely
// nil (the interpreter's semantics for uninitialized handles), except the
// declared external roots, which the environment may bind to arbitrary
// tree structures.
func entryForMain(main *ast.ProcDecl, opts Options) *matrix.Matrix {
	ext := make(map[string]bool, len(opts.ExternalRoots))
	for _, r := range opts.ExternalRoots {
		ext[r] = true
	}
	m := matrix.NewIn(opts.Space)
	var roots []matrix.Handle
	for _, v := range main.Locals {
		if v.Type != ast.HandleT {
			continue
		}
		if ext[v.Name] {
			h := matrix.Handle(v.Name)
			m.Add(h, matrix.Attr{Nil: matrix.MaybeNil, Indeg: matrix.UnknownDeg})
			roots = append(roots, h)
		} else {
			m.Add(matrix.Handle(v.Name), matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root})
		}
	}
	maybeAnywhere := path.NewSet(path.SamePossible(), opts.Space.Paths().NewPossible(path.Plus(path.DownD)))
	for _, a := range roots {
		for _, b := range roots {
			if a != b {
				m.Put(a, b, maybeAnywhere)
			}
		}
	}
	return m
}

// reanalyze runs one pass over a procedure body from one context's entry.
// In fixpoint mode (a.st != nil) the computed exit projection is staged
// for the round barrier; in recording mode the pass is read-only
// (Before/After and diagnostics aside).
func (a *analyzer) reanalyze(it item) {
	s := a.eng.summary(it.name)
	if s == nil {
		return
	}
	a.cur = s.Proc
	a.curSum = s
	a.curItem = it
	m := s.ctxEntry(it.ctx).Copy()
	// Locals start definitely nil — unless the entry matrix already binds
	// them (main's external roots).
	for _, v := range s.Proc.Locals {
		if v.Type == ast.HandleT && !m.Has(matrix.Handle(v.Name)) {
			m.Add(matrix.Handle(v.Name), matrix.Attr{Nil: matrix.DefNil, Indeg: matrix.Root})
		}
	}
	exit := a.stmt(m, s.Proc.Body)
	if a.st == nil || exit == nil {
		return
	}
	// Project onto the caller-visible handles.
	keep := make([]matrix.Handle, 0, 8)
	for _, h := range exit.Handles() {
		if h.IsSymbolic() {
			keep = append(keep, h)
		}
	}
	for _, v := range s.Proc.Params {
		if v.Type == ast.HandleT {
			keep = append(keep, matrix.Handle(v.Name))
		}
	}
	if s.Proc.IsFunction() {
		keep = append(keep, matrix.Handle(s.Proc.ReturnVar))
	}
	proj := exit.Project(keep)
	proj.Widen(a.eng.opts.Limits)
	a.st.exit = proj
}

// walkStmts visits every statement in a subtree.
func walkStmts(s ast.Stmt, f func(ast.Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			walkStmts(st, f)
		}
	case *ast.Par:
		for _, st := range s.Branches {
			walkStmts(st, f)
		}
	case *ast.If:
		walkStmts(s.Then, f)
		walkStmts(s.Else, f)
	case *ast.While:
		walkStmts(s.Body, f)
	}
}

func (a *analyzer) record(before bool, s ast.Stmt, m *matrix.Matrix) {
	if !a.recording || m == nil {
		return
	}
	if a.sink != nil {
		if !before {
			return
		}
		if prev, ok := a.sink[s]; ok {
			merged := prev.Merge(m)
			merged.Widen(a.eng.opts.Limits)
			a.sink[s] = merged
		} else {
			a.sink[s] = m.Copy()
		}
		return
	}
	tab := a.eng.info.Before
	if !before {
		tab = a.eng.info.After
	}
	if prev, ok := tab[s]; ok {
		merged := prev.Merge(m)
		merged.Widen(a.eng.opts.Limits)
		tab[s] = merged
	} else {
		tab[s] = m.Copy()
	}
}

// stmt is the abstract transformer: given the matrix before s, it returns
// the matrix after s, or nil (bottom) when the point after s is not
// reachable in the current approximation.
func (a *analyzer) stmt(m *matrix.Matrix, s ast.Stmt) *matrix.Matrix {
	if m == nil {
		return nil
	}
	a.record(true, s, m)
	var out *matrix.Matrix
	switch s := s.(type) {
	case *ast.Block:
		out = m
		for _, st := range s.Stmts {
			out = a.stmt(out, st)
		}
	case *ast.Par:
		// The analysis treats parallel branches as sequential composition;
		// the interference analyses of §5 independently verify that the
		// branches do not interfere, which makes any order equivalent.
		out = m
		for _, st := range s.Branches {
			out = a.stmt(out, st)
		}
	case *ast.If:
		thenIn := refineCond(m.Copy(), s.Cond, true)
		elseIn := refineCond(m.Copy(), s.Cond, false)
		thenOut := a.stmt(thenIn, s.Then)
		elseOut := elseIn
		if s.Else != nil {
			elseOut = a.stmt(elseIn, s.Else)
		}
		out = mergeMaybe(thenOut, elseOut)
		if out != nil {
			out.Widen(a.eng.opts.Limits)
		}
	case *ast.While:
		out = a.while(m, s)
	case *ast.CallStmt:
		out = a.call(m, s, s.Name, s.Args, nil)
	case *ast.Assign:
		out = a.assign(m, s)
	default:
		out = m
	}
	a.record(false, s, out)
	return out
}

// mergeMaybe joins two possibly-bottom matrices.
func mergeMaybe(x, y *matrix.Matrix) *matrix.Matrix {
	switch {
	case x == nil:
		return y
	case y == nil:
		return x
	default:
		return x.Merge(y)
	}
}

// while implements the iterative approximation of Figure 3: starting from
// p0 (zero iterations), repeatedly analyze one more iteration and merge,
// widening until the matrix stabilizes at p+.
func (a *analyzer) while(m *matrix.Matrix, s *ast.While) *matrix.Matrix {
	acc := m.Copy()
	for i := 0; i < a.eng.opts.MaxLoopIters; i++ {
		bodyIn := refineCond(acc.Copy(), s.Cond, true)
		bodyOut := a.stmt(bodyIn, s.Body)
		next := mergeMaybe(acc, bodyOut)
		if next == nil {
			return nil
		}
		next.Widen(a.eng.opts.Limits)
		if next.Equal(acc) {
			break
		}
		acc = next
	}
	return refineCond(acc.Copy(), s.Cond, false)
}
