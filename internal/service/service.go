// Package service is the analysis-as-a-service layer: it turns the one-shot
// Analyze pipeline into a long-lived serving subsystem with
//
//   - a bounded SESSION POOL that reuses analysis workspaces across
//     requests, where every session owns a PRIVATE path/matrix Space with
//     its own epoch lifecycle: a session's intern, memo, and residue
//     tables are touched only by the request that has the session checked
//     out, so epoch resets are worker-local — no gate, no quiescing, and a
//     reset on one session never blocks a sibling's in-flight analysis;
//   - a bounded LRU RESULT CACHE keyed by a canonical 128-bit program
//     fingerprint (the printed canonical AST plus the semantics-affecting
//     options, hashed with the same two-lane mixing the matrix/set
//     fingerprints use), with hit/miss/eviction counters. Cached entries
//     hold the RENDERED response bytes, not live analysis objects, so they
//     are epoch-independent: a Space reset never invalidates the cache,
//     and a cache hit is byte-identical to the fresh response by
//     construction;
//   - BATCHED requests: a multi-program request analyzes its independent
//     programs in parallel under one worker budget (the session pool);
//     per-program results come back in request order.
//
// The determinism this leans on is load-bearing and separately tested: the
// analysis is bit-identical across worker-pool sizes (the round-based
// engine), Info is immutable after Analyze (replay_test.go), and
// Parse(Print(p)) is structurally equal to p (roundtrip_test.go), which
// is what makes the canonical-print fingerprint a sound cache key. Because
// rendered bodies are pure functions of the canonical source and options —
// never of intern IDs or Space identity — they are also byte-identical
// whichever pooled session served them, which the session-count
// equivalence suite pins.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// Options tunes a Service.
type Options struct {
	// Analysis is the default analysis configuration; per-request overrides
	// (Roots, MaxContexts) apply on top. Workers is per-analysis and does
	// not affect results (the engine is bit-identical across pool sizes),
	// so it is excluded from cache keys. Analysis.Space is ignored: every
	// pooled session substitutes its own private Space.
	Analysis analysis.Options
	// Par configures the parallelizer pass (zero value: par.DefaultOptions).
	Par par.Options
	// CacheCapacity bounds the result cache (entries). 0 picks 256;
	// negative disables caching.
	CacheCapacity int
	// Sessions bounds the session pool — the worker budget: at most this
	// many analyses run concurrently; further requests queue. 0 picks
	// min(NumCPU, 8).
	Sessions int
	// ResetInternedPaths is the per-session epoch policy: after a request
	// completes, if the session's private Space holds more interned path
	// expressions than this, that Space is reset while the session is still
	// exclusively checked out (dropping its intern/memo/residue tables and,
	// via the reset hook, its matrix handle table). Other sessions are
	// never involved. 0 picks 1<<20; negative disables epoch resets.
	ResetInternedPaths int
	// SummaryCapacity bounds the per-procedure summary store (records) —
	// the incremental-analysis warm path consulted on result-cache
	// misses (summarystore.go). 0 picks 4096; negative disables
	// incremental analysis entirely.
	SummaryCapacity int
	// MaxQueue bounds the ADMISSION QUEUE in front of the session pool:
	// beyond the Sessions analyses that can run concurrently, at most
	// MaxQueue further analyses may wait for a session; any request past
	// that is shed immediately with a 429-style "overloaded" error instead
	// of queueing unboundedly. Cache hits and coalesced waiters bypass
	// admission (they consume no session). 0 picks 256; negative admits
	// only when a session is free (no queue at all).
	MaxQueue int
	// RequestTimeout is the per-request deadline the serving layers apply:
	// the HTTP handler derives each request context from it, and a
	// coalesced flight's detached context is re-armed with it so a shared
	// analysis still has SOME deadline after its first caller's scope is
	// detached. 0 means no service-imposed deadline (callers may still
	// bring their own via ctx).
	RequestTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Par == (par.Options{}) {
		o.Par = par.DefaultOptions
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 256
	}
	if o.Sessions == 0 {
		o.Sessions = runtime.NumCPU()
		if o.Sessions > 8 {
			o.Sessions = 8
		}
	}
	if o.Sessions < 1 {
		o.Sessions = 1
	}
	if o.ResetInternedPaths == 0 {
		o.ResetInternedPaths = 1 << 20
	}
	if o.SummaryCapacity == 0 {
		o.SummaryCapacity = 4096
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 256
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = -1 // normalized "no queue" (admit only on a free session)
	}
	return o
}

// Request is one program to analyze.
type Request struct {
	// Name labels the program in responses (defaults to the program's own
	// name from the source).
	Name string `json:"name,omitempty"`
	// Source is the SIL program text.
	Source string `json:"source"`
	// Roots names main locals bound to externally built structures
	// (analysis.Options.ExternalRoots).
	Roots []string `json:"roots,omitempty"`
	// MaxContexts overrides the context-table cap when non-zero (negative
	// = merged mode), mirroring analysis.Options.MaxContexts.
	MaxContexts int `json:"max_contexts,omitempty"`
	// Limits overrides path-domain budgets per request so interactive
	// clients can set tighter budgets than batch ones. Zero fields keep
	// the service default; negative fields are rejected with a 400. The
	// effective limits are part of the result fingerprint and reflected
	// in the response document.
	Limits *LimitsSpec `json:"limits,omitempty"`
}

// LimitsSpec is the wire form of a per-request path.Limits override.
type LimitsSpec struct {
	// MaxExact caps exact edge counts per path segment (wider widens to
	// the >= form); MaxSegs caps direction runs per path; MaxPaths caps
	// the path set per matrix entry.
	MaxExact int `json:"max_exact,omitempty"`
	MaxSegs  int `json:"max_segs,omitempty"`
	MaxPaths int `json:"max_paths,omitempty"`
}

// validate rejects malformed per-request overrides before compilation.
func (r Request) validate() *RequestError {
	if l := r.Limits; l != nil {
		if l.MaxExact < 0 || l.MaxSegs < 0 || l.MaxPaths < 0 {
			return &RequestError{Status: 400, Code: CodeInvalidRequest, Msg: "limits: fields must be non-negative (zero keeps the default)"}
		}
	}
	return nil
}

// Machine-readable error codes, the stable vocabulary of the v1 error
// envelope. errorCodes (metrics.go) lists them all for counters.
const (
	// CodeInvalidRequest: malformed request fields (negative limits, …).
	CodeInvalidRequest = "invalid_request"
	// CodeParseError: the program failed to compile (parse/type errors).
	CodeParseError = "parse_error"
	// CodeBudgetExceeded: the analysis hit a work budget (rounds or
	// interned paths) and was stopped at a round barrier.
	CodeBudgetExceeded = "budget_exceeded"
	// CodeDeadlineExceeded: the request deadline expired before the
	// result was ready.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the caller went away (client disconnect).
	CodeCanceled = "canceled"
	// CodeOverloaded: admission control shed the request — the session
	// pool and its bounded queue are full. Retry after backoff.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down gracefully and refuses
	// new analyses; in-flight work finishes. Retry against another
	// replica.
	CodeDraining = "draining"
	// CodeInternal: unexpected analysis/render failure.
	CodeInternal = "internal"
)

// RequestError describes a per-program failure.
type RequestError struct {
	// Status is the suggested HTTP status: 400 for parse/type errors, 429
	// for shed requests, 503 for exceeded budgets, 504 for expired
	// deadlines, 499 (nginx convention) for a gone client, 500 for
	// internal analysis failures.
	Status int `json:"status"`
	// Code is the machine-readable error code (Code* constants).
	Code string `json:"code"`
	// Msg is the error rendering.
	Msg string `json:"error"`
	// Diags carries the compile diagnostics behind a 400.
	Diags []string `json:"diagnostics,omitempty"`
}

func (e *RequestError) Error() string { return e.Msg }

// ctxRequestError classifies a done context: deadline vs client-gone.
func ctxRequestError(ctx context.Context) *RequestError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &RequestError{Status: 504, Code: CodeDeadlineExceeded, Msg: "request deadline exceeded"}
	}
	return &RequestError{Status: 499, Code: CodeCanceled, Msg: "request canceled by caller"}
}

// analysisRequestError maps an analysis failure onto the error vocabulary.
func analysisRequestError(err error) *RequestError {
	switch {
	case errors.Is(err, analysis.ErrBudgetExceeded):
		return &RequestError{Status: 503, Code: CodeBudgetExceeded, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &RequestError{Status: 504, Code: CodeDeadlineExceeded, Msg: err.Error()}
	case errors.Is(err, analysis.ErrCanceled):
		return &RequestError{Status: 499, Code: CodeCanceled, Msg: err.Error()}
	default:
		return &RequestError{Status: 500, Code: CodeInternal, Msg: err.Error()}
	}
}

// Response is the outcome for one Request.
type Response struct {
	// Name echoes the request (or the program's declared name).
	Name string
	// Fingerprint is the canonical 128-bit program fingerprint (hex).
	Fingerprint string
	// Cached reports whether Body came from the result cache. It is
	// deliberately NOT part of Body: cached and fresh bodies are
	// byte-identical (transport layers surface it out of band).
	Cached bool
	// Body is the canonical JSON result document.
	Body []byte
	// Err is set instead of Body when the program failed.
	Err *RequestError
}

// Service is a concurrent analysis server: session pool, result cache,
// per-session epoch management. Safe for use from many goroutines.
type Service struct {
	opts Options

	// sessions is the pool; every analysis checks a session out and back
	// in, so pool size == worker budget. sessionList holds the same
	// sessions permanently for Stats to read their counters and Spaces.
	sessions    chan *Session
	sessionList []*Session

	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *cacheEntry
	cache map[Fp]*list.Element
	// inflight coalesces concurrent cold misses per fingerprint: the first
	// requester analyzes, the rest wait for its rendered bytes instead of
	// burning sessions on byte-identical work (the Zipf-skewed mixes the
	// load mode serves make simultaneous same-program misses the common
	// cold-start case).
	inflight map[Fp]*flight

	// sumStore is the per-procedure summary store behind incremental
	// analysis (summarystore.go); nil when disabled. It is service-level
	// (not per-session): records are Space-free, so any session can seed
	// from any record.
	sumStore *summaryStore
	// afterCheckout, when set, runs right after runAnalysis checks a
	// session out: a test hook that parks a request while it holds a
	// session and an admission token. Never set outside tests.
	afterCheckout func()

	// admit is the admission-control token bucket: capacity Sessions +
	// MaxQueue. An analysis must take a token (non-blocking — failure is
	// an immediate shed) before it may wait for a session, so at most
	// MaxQueue requests ever queue behind the pool and the rest fail fast
	// with 429 instead of stacking up. Tokens are held until the session
	// returns. Cache hits and coalesced waiters never take tokens.
	admit chan struct{}

	served    atomic.Uint64
	analyses  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	resets    atomic.Uint64
	errors    atomic.Uint64
	// shed counts requests refused admission outright; expired counts
	// requests whose context ended while queued for a session.
	shed    atomic.Uint64
	expired atomic.Uint64
	// busy/queued are instantaneous gauges: sessions checked out and
	// requests waiting for one.
	busy   atomic.Int64
	queued atomic.Int64
	// errCodes counts failures by error code; phases holds the per-phase
	// latency histograms (metrics.go).
	errCodes codeCounters
	phases   [nPhases]histogram
}

// flight is one in-progress analysis other requests may wait on. The
// executor runs on a context DETACHED from the caller that started it
// (re-armed with the service RequestTimeout), so one waiter's deadline can
// never cancel the shared work: each caller independently stops waiting
// when its own context ends, while the flight runs to completion and
// populates the cache for the next requester either way.
type flight struct {
	done chan struct{}
	body []byte        // rendered bytes on success
	err  *RequestError // terminal failure, delivered to every waiter
}

// Session is one pooled analysis workspace. It owns a private matrix/path
// Space — the interned path expressions, memoized verdicts, and handle
// table a request's matrices are built from — so the heavyweight state is
// per-session, not process-wide. A session is exclusively checked out for
// the whole request pipeline (analyze, parallelize, render, epoch check),
// which is what makes its Space single-threaded by construction: resets
// happen between checkouts with no locking at all.
type Session struct {
	id     int
	space  *matrix.Space
	served atomic.Uint64
}

type cacheEntry struct {
	key  Fp
	name string
	body []byte
}

// New builds a Service.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:     opts,
		sessions: make(chan *Session, opts.Sessions),
		lru:      list.New(),
		cache:    map[Fp]*list.Element{},
		inflight: map[Fp]*flight{},
	}
	queue := opts.MaxQueue
	if queue < 0 {
		queue = 0
	}
	s.admit = make(chan struct{}, opts.Sessions+queue)
	for i := 0; i < opts.Sessions; i++ {
		sess := &Session{id: i + 1, space: matrix.NewSpace(path.NewSpace())}
		s.sessionList = append(s.sessionList, sess)
		s.sessions <- sess
	}
	if opts.SummaryCapacity > 0 {
		s.sumStore = newSummaryStore(opts.SummaryCapacity)
	}
	return s
}

// prepared is a compiled, fingerprinted request ready to be served.
type prepared struct {
	name string
	prog *ast.Program
	opts analysis.Options
	fp   Fp
	err  *RequestError // compile failure; fp is zero and prog is nil
}

// prepare compiles and fingerprints a request.
func (s *Service) prepare(req Request) prepared {
	if verr := req.validate(); verr != nil {
		return prepared{name: req.Name, err: verr}
	}
	t := metricsNow()
	prog, err := progs.Compile(req.Source)
	s.phases[phaseParse].observe(metricsNow().Sub(t))
	if err != nil {
		return prepared{name: req.Name, err: &RequestError{
			Status: 400,
			Code:   CodeParseError,
			Msg:    err.Error(),
			Diags:  []string{err.Error()},
		}}
	}
	name := req.Name
	if name == "" {
		name = prog.Name
	}
	opts := s.requestOptions(req)
	t = metricsNow()
	canon := printer.Print(prog)
	fp := ProgramFingerprint(canon, opts)
	s.phases[phaseFingerprint].observe(metricsNow().Sub(t))
	return prepared{name: name, prog: prog, opts: opts, fp: fp}
}

// Analyze serves one program: cache lookup by canonical fingerprint, then
// a pooled fresh analysis on a miss. ctx bounds the caller's wait and the
// caller's own analysis (deadline/cancel); a nil ctx means Background.
// Deadlines, budgets, and admission can only FAIL a request — a successful
// response's bytes are identical whatever they are set to.
func (s *Service) Analyze(ctx context.Context, req Request) Response {
	if ctx == nil {
		ctx = context.Background() //sillint:allow ctxflow nil-default for direct library callers; HTTP paths always thread the request ctx
	}
	p := s.prepare(req)
	s.served.Add(1)
	if p.err != nil {
		return s.errResponse(p.name, "", p.err)
	}
	if body, ok := s.cacheGet(p.fp); ok {
		s.hits.Add(1)
		return Response{Name: p.name, Fingerprint: p.fp.String(), Cached: true, Body: body}
	}
	if s.opts.CacheCapacity < 0 {
		// Caching disabled: no flights either (nothing to share), every
		// request runs its own admission-controlled analysis.
		s.misses.Add(1)
		body, rerr := s.runAnalysis(ctx, p)
		if rerr != nil {
			return s.errResponse(p.name, p.fp.String(), rerr)
		}
		return Response{Name: p.name, Fingerprint: p.fp.String(), Body: body}
	}
	// Coalesce concurrent misses on the same program: the first requester
	// starts the flight, the rest wait for its rendered bytes instead of
	// burning sessions on byte-identical work (the Zipf-skewed mixes the
	// load mode serves make simultaneous same-program misses the common
	// cold-start case). The flight executor is detached from every
	// caller's context (flight doc above), so each caller only waits as
	// long as its OWN context allows.
	s.mu.Lock()
	fl := s.inflight[p.fp]
	leader := fl == nil
	if leader {
		fl = &flight{done: make(chan struct{})}
		s.inflight[p.fp] = fl
	}
	s.mu.Unlock()
	if leader {
		s.misses.Add(1)
		go s.runFlight(ctx, p, fl)
	}
	select {
	case <-fl.done:
	case <-ctx.Done():
		return s.errResponse(p.name, p.fp.String(), ctxRequestError(ctx))
	}
	if fl.err != nil {
		// Terminal flight failures (parse-independent: budget, internal)
		// apply to every waiter — the same program would fail the same way.
		return s.errResponse(p.name, p.fp.String(), fl.err)
	}
	if !leader {
		s.coalesced.Add(1)
	}
	return Response{Name: p.name, Fingerprint: p.fp.String(), Cached: !leader, Body: fl.body}
}

// runFlight executes one coalesced analysis to completion on a context
// detached from the starting caller, then publishes the outcome to every
// waiter. Detachment is what keeps one caller's deadline from cancelling
// work other waiters (and the cache) still want; the service's own
// RequestTimeout is re-armed so a detached flight still cannot run
// forever.
func (s *Service) runFlight(callerCtx context.Context, p prepared, fl *flight) {
	ctx := context.WithoutCancel(callerCtx) //sillint:allow ctxflow sanctioned detach: a coalesced flight outlives any one caller; RequestTimeout re-arms a bound below
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	fl.body, fl.err = s.runAnalysis(ctx, p)
	s.mu.Lock()
	delete(s.inflight, p.fp)
	s.mu.Unlock()
	close(fl.done)
}

// checkout admits the request and takes a session. Admission is two-step:
// a non-blocking token acquire (failure = the pool AND the bounded queue
// are full → shed with 429), then a context-bounded wait for a session.
// The token is held until checkin returns the session, so token capacity
// (Sessions + MaxQueue) is exactly the maximum number of analyses running
// or waiting.
func (s *Service) checkout(ctx context.Context) (*Session, *RequestError) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.shed.Add(1)
		return nil, &RequestError{
			Status: 429,
			Code:   CodeOverloaded,
			Msg:    fmt.Sprintf("overloaded: %d analyses running and %d queued; retry later", s.opts.Sessions, cap(s.admit)-s.opts.Sessions),
		}
	}
	// Fast path: a free session, no queueing.
	select {
	case sess := <-s.sessions:
		s.busy.Add(1)
		return sess, nil
	default:
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	select {
	case sess := <-s.sessions:
		s.busy.Add(1)
		return sess, nil
	case <-ctx.Done():
		<-s.admit // release the admission token
		s.expired.Add(1)
		return nil, ctxRequestError(ctx)
	}
}

// checkin retires the request's exclusive session use — per-session epoch
// bookkeeping runs here, while the session is still exclusively held —
// then returns the session before releasing the admission token (token
// count must never undercount live session claims).
func (s *Service) checkin(sess *Session) {
	sess.served.Add(1)
	s.maybeReset(sess)
	s.busy.Add(-1)
	s.sessions <- sess //sillint:allow ctxflow check-in send: sessions is buffered to pool size and every live session owns a slot
	<-s.admit          //sillint:allow ctxflow admission release: admit always holds this request's own token
}

// runAnalysis is one full admission-controlled analysis pipeline: session
// checkout, summary-store seeding, fixpoint, parallelize, render, seed
// backfill, cache fill. The session is held for the whole pipeline: the
// analysis interns into the session's private Space, and the render reads
// path sets that live there, so the session (and with it exclusive
// ownership of the Space) must not return to the pool until the bytes are
// final. On any failure the session still checks in clean — budgets and
// cancellation stop the engine at a round barrier, and the Space's next
// epoch reset reclaims whatever the aborted run interned.
func (s *Service) runAnalysis(ctx context.Context, p prepared) ([]byte, *RequestError) {
	sess, rerr := s.checkout(ctx)
	if rerr != nil {
		return nil, rerr
	}
	defer s.checkin(sess)
	if s.afterCheckout != nil {
		s.afterCheckout()
	}
	opts := p.opts
	opts.Space = sess.space
	opts.Budgets = s.opts.Analysis.Budgets
	// Incremental warm path: on a result-cache miss, probe the summary
	// store for every procedure's (cohort, options) key and seed the
	// engine with the hits — an edit re-analyzes only the edited SCC and
	// its callers. The engine validates seeds post-run and re-runs cold
	// on any mismatch, so this never changes the rendered bytes.
	var procFps map[string]ProcFp
	var missing map[string]Fp // procedure -> summary key to backfill
	if s.sumStore != nil {
		procFps = ProcFingerprints(p.prog)
		missing = make(map[string]Fp, len(procFps))
		seeds := make(map[string]*analysis.ProcSeed, len(procFps))
		for name, pf := range procFps {
			key := SummaryKey(pf.Cohort, p.opts)
			if seed, ok := s.sumStore.get(key); ok {
				seeds[name] = seed
			} else {
				missing[name] = key
			}
		}
		if len(seeds) > 0 {
			opts.Seeds = seeds
		}
	}
	t := metricsNow()
	info, aerr := analysis.Analyze(ctx, p.prog, opts)
	if aerr != nil {
		return nil, analysisRequestError(aerr)
	}
	parRes := par.Parallelize(info, s.opts.Par)
	s.phases[phaseFixpoint].observe(metricsNow().Sub(t))
	// The document is rendered under the program's DECLARED name — a
	// pure function of the canonical source, like everything else in
	// the body — so a cache hit is correct for every requester
	// regardless of the request label (Response.Name carries the
	// label), and the bytes are identical whichever session produced
	// them.
	t = metricsNow()
	body, rendErr := renderResult(p.prog.Name, p.fp, info, parRes)
	if rendErr != nil {
		return nil, &RequestError{Status: 500, Code: CodeInternal, Msg: rendErr.Error()}
	}
	if len(missing) > 0 {
		// Backfill only the store misses: hits were just refreshed by
		// get, and deterministic exports make a re-put a no-op.
		exported := analysis.ExportSeeds(info)
		for name, key := range missing {
			if seed := exported[name]; seed != nil {
				s.sumStore.put(key, procFps[name].Body, seed)
			}
		}
	}
	s.phases[phaseRender].observe(metricsNow().Sub(t))
	s.analyses.Add(1)
	s.cachePut(p.fp, p.name, body)
	return body, nil
}

// errResponse counts one failed request (total and per-code) and shapes
// the Response.
func (s *Service) errResponse(name, fp string, rerr *RequestError) Response {
	s.errors.Add(1)
	s.errCodes.inc(rerr.Code)
	return Response{Name: name, Fingerprint: fp, Err: rerr}
}

// AnalyzeBatch serves a multi-program request: the programs are analyzed
// in parallel under the session-pool budget, and the responses come back
// in request order. The pool bounds the whole per-program pipeline —
// compile, fingerprint, cache probe, analysis — not just the analysis, so
// an arbitrarily large batch runs at most Sessions programs (and spawns
// at most Sessions goroutines) at a time. ctx applies to every program in
// the batch (one deadline for the whole request).
func (s *Service) AnalyzeBatch(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 1 {
		out[0] = s.Analyze(ctx, reqs[0])
		return out
	}
	workers := s.opts.Sessions
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = s.Analyze(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// requestOptions merges a request's overrides into the service defaults.
func (s *Service) requestOptions(req Request) analysis.Options {
	opts := s.opts.Analysis
	opts.Space = nil // per-session Spaces are substituted at analysis time
	if len(req.Roots) > 0 {
		roots := append([]string(nil), req.Roots...)
		sort.Strings(roots)
		opts.ExternalRoots = roots
	}
	if req.MaxContexts != 0 {
		opts.MaxContexts = req.MaxContexts
	}
	if req.Limits != nil {
		lim := opts.Limits
		if lim == (path.Limits{}) {
			lim = path.DefaultLimits
		}
		if req.Limits.MaxExact > 0 {
			lim.MaxExact = req.Limits.MaxExact
		}
		if req.Limits.MaxSegs > 0 {
			lim.MaxSegs = req.Limits.MaxSegs
		}
		if req.Limits.MaxPaths > 0 {
			lim.MaxPaths = req.Limits.MaxPaths
		}
		opts.Limits = lim
	}
	return opts
}

func (s *Service) cacheGet(fp Fp) ([]byte, bool) {
	if s.opts.CacheCapacity < 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.cache[fp]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (s *Service) cachePut(fp Fp, name string, body []byte) {
	if s.opts.CacheCapacity < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.cache[fp]; ok {
		// A concurrent miss on the same program raced us here; both bodies
		// are byte-identical (deterministic render), keep the incumbent.
		s.lru.MoveToFront(el)
		return
	}
	s.cache[fp] = s.lru.PushFront(&cacheEntry{key: fp, name: name, body: body})
	for s.lru.Len() > s.opts.CacheCapacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.cache, oldest.Value.(*cacheEntry).key)
		s.evictions.Add(1)
	}
}

// FlushCache drops every cached result (test and operations hook).
func (s *Service) FlushCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.Init()
	s.cache = map[Fp]*list.Element{}
}

// maybeReset starts a new epoch on the session's private Space when its
// intern table has outgrown the budget. The caller still holds the session
// exclusively, so no other goroutine can be touching this Space — the
// reset needs no gate and never waits for (or blocks) sibling sessions.
// Cached results survive: they hold rendered bytes, not epoch-bound
// objects.
func (s *Service) maybeReset(sess *Session) {
	if s.opts.ResetInternedPaths < 0 {
		return
	}
	if sess.space.Paths().InternedCount() <= s.opts.ResetInternedPaths {
		return
	}
	sess.space.Paths().Reset()
	s.resets.Add(1)
}

// Stats is the monitoring snapshot (the /stats document).
type Stats struct {
	Served   uint64 `json:"served"`
	Analyses uint64 `json:"analyses"`
	Errors   uint64 `json:"errors"`

	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheSize      int     `json:"cache_size"`
	CacheCapacity  int     `json:"cache_capacity"`
	HitRate        float64 `json:"hit_rate"`
	// Coalesced counts misses served from another request's in-flight
	// analysis of the same program (cold-start thundering herd absorbed).
	Coalesced uint64 `json:"coalesced"`

	// Shed counts requests refused admission (pool + queue full, 429);
	// Expired counts requests whose deadline ended while queued. Busy and
	// Queued are instantaneous gauges; QueueCapacity echoes MaxQueue
	// after defaulting (0 = no queue).
	Shed          uint64 `json:"shed"`
	Expired       uint64 `json:"expired"`
	Busy          int64  `json:"sessions_busy"`
	Queued        int64  `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`

	// ErrorCodes counts failed requests by machine-readable error code
	// (only non-zero codes appear).
	ErrorCodes map[string]uint64 `json:"error_codes,omitempty"`

	Sessions uint64 `json:"sessions"`
	// SessionLoads is each pooled session's checkout count, in session
	// order — the balance of the worker budget over the pool.
	SessionLoads []uint64 `json:"session_loads"`
	// SessionEpochs is each pooled session's private-Space epoch, in
	// session order; Epoch is their sum.
	SessionEpochs []uint64 `json:"session_epochs"`

	Epoch         uint64  `json:"epoch"`
	EpochResets   uint64  `json:"epoch_resets"`
	InternedPaths int     `json:"interned_paths"`
	MemoVerdicts  int     `json:"memo_verdicts"`
	MemoHitRate   float64 `json:"memo_hit_rate"`

	// SummaryStore is the per-procedure summary store's counters (all
	// zero when the store is disabled).
	SummaryStore SummaryStoreStats `json:"summary_store"`
}

// Stats snapshots the service counters and the per-session Space tables.
// Epoch, InternedPaths, and MemoVerdicts aggregate (sum) across the
// sessions' private Spaces; per-session epochs are in SessionEpochs.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	size := s.lru.Len()
	s.mu.Unlock()
	st := Stats{
		Served:         s.served.Load(),
		Analyses:       s.analyses.Load(),
		Errors:         s.errors.Load(),
		CacheHits:      s.hits.Load(),
		CacheMisses:    s.misses.Load(),
		CacheEvictions: s.evictions.Load(),
		CacheSize:      size,
		CacheCapacity:  s.opts.CacheCapacity,
		Coalesced:      s.coalesced.Load(),
		Shed:           s.shed.Load(),
		Expired:        s.expired.Load(),
		Busy:           s.busy.Load(),
		Queued:         s.queued.Load(),
		QueueCapacity:  cap(s.admit) - s.opts.Sessions,
		ErrorCodes:     s.errCodes.snapshot(),
		Sessions:       uint64(s.opts.Sessions),
		EpochResets:    s.resets.Load(),
	}
	if s.sumStore != nil {
		st.SummaryStore = s.sumStore.stats()
	}
	var memoHits, memoMisses uint64
	for _, sess := range s.sessionList {
		st.SessionLoads = append(st.SessionLoads, sess.served.Load())
		sp := sess.space.Paths().Stats()
		st.SessionEpochs = append(st.SessionEpochs, sp.Epoch)
		st.Epoch += sp.Epoch
		st.InternedPaths += sp.InternedPaths
		st.MemoVerdicts += sp.Verdicts()
		memoHits += sp.MemoHits
		memoMisses += sp.MemoMisses
	}
	if total := memoHits + memoMisses; total > 0 {
		st.MemoHitRate = float64(memoHits) / float64(total)
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.HitRate = float64(st.CacheHits) / float64(total)
	}
	return st
}

// String renders the stats compactly (logging hook).
func (st Stats) String() string {
	return fmt.Sprintf("served=%d analyses=%d hits=%d misses=%d coalesced=%d evictions=%d size=%d/%d epoch=%d resets=%d paths=%d",
		st.Served, st.Analyses, st.CacheHits, st.CacheMisses, st.Coalesced, st.CacheEvictions,
		st.CacheSize, st.CacheCapacity, st.Epoch, st.EpochResets, st.InternedPaths)
}
