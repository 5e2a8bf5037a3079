package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/progs"
	"repro/internal/service"
)

// op is the outcome of one timed operation.
type op struct {
	lat time.Duration
	// miss marks an op whose result was computed rather than served from a
	// result cache; ops of the one-shot workloads always compute.
	miss bool
	ok   bool
	prog string
	// slot identifies the op's input and state within a pass. Ops that
	// replay a slot in a later pass count once in the latency metrics,
	// with their fastest latency (fastestPerSlot).
	slot int
}

// runResult is what a timed run hands to the metric computation.
type runResult struct {
	ops     []op
	elapsed time.Duration
	// layers holds the per-layer metrics of a traced run that only the
	// workload can compute; span-derived ones are added by the caller.
	layers map[string]float64
}

// workload is one benchmark workload. setup builds everything the next
// timed pass needs and may be called again, replacing what it built
// before; check is the untimed reference phase; run measures in passes and
// calls resetup between passes to set up again, each call one more sample
// of setup_s.
type workload interface {
	setup() error
	check(g *gate) error
	run(tr *tracer, resetup func() error) (runResult, error)
	close()
}

// workloadSpec fixes what differs between workloads outside their code.
type workloadSpec struct {
	name string
	why  string
	// tail is the percentile of trace.latency_ms_tail: p99 where a run has
	// at least 1,000 ops on the reference machine, else p90
	// (tailPercentile).
	tail float64
	// limit is the latency limit L of goodput_ops_s; 0 counts every
	// correct op.
	limit time.Duration
	// openLoop marks a workload that sends on a schedule rather than
	// after each reply.
	openLoop bool
	// procs is the run's GOMAXPROCS. The analysis workloads run on one
	// CPU: on the two-vCPU reference VM the second vCPU is intermittently
	// taken away by the host, which made whole two-thread runs up to 50%
	// slower and tripled their run-to-run spread (bench/README.md,
	// "Bounds and spreads"). serve-zipf keeps two, one for its clients
	// and one for the server.
	procs int
	make  func(seed int64, seconds time.Duration) workload
}

var workloads = []workloadSpec{
	{"corpus-cold", "the silc path (compile, analyze on a fresh Space, parallelize, print) over the paper's 12 corpus programs", 0.99, 0, false, 1,
		func(seed int64, d time.Duration) workload {
			return &oneShot{seed: seed, seconds: d, gen: corpusPrograms}
		}},
	{"chain-scale", "the silc path on 16 generated call chains (k=4..12) where the interprocedural fixpoint and context table dominate", 0.90, 0, false, 1,
		func(seed int64, d time.Duration) workload {
			return &oneShot{seed: seed, seconds: d, gen: chainPrograms}
		}},
	{"serve-zipf", "open-loop Zipf(1.2) requests over 600 near-duplicate programs on /v1/analyze: cache, eviction, coalescing, HTTP", 0.99, latencyLimit, true, 2,
		func(seed int64, d time.Duration) workload { return &serveZipf{seed: seed, seconds: d} }},
	{"edit-session", "24 fixed-shape 20-edit sessions replayed on a fresh in-process service: summary-store seeding and invalidation, cache hits only on revert", 0.99, 0, false, 1,
		func(seed int64, d time.Duration) workload { return &editSessions{seed: seed, seconds: d} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// ---- corpus-cold and chain-scale: the one-shot silc path ----

type oneShot struct {
	seed    int64
	seconds time.Duration
	gen     func(seed int64) []program
	progs   []program
	refs    []digest
}

func (w *oneShot) setup() error {
	w.progs = w.gen(w.seed)
	if err := compileAll(w.progs); err != nil {
		return err
	}
	for _, p := range cheapest(w.progs) {
		if _, err := pipeline(p, analysisWorkers, nil, 0, -1); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// compileAll checks that every generated source compiles.
func compileAll(ps []program) error {
	for _, p := range ps {
		if _, err := progs.Compile(p.source); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// cheapest returns the distinct inputs of least chain depth: all of the
// corpus, or the k=4 chains. Set-up ends with one untimed op on each, so
// lazy initialization is paid, and measured, in set-up rather than in the
// first timed ops.
func cheapest(ps []program) []program {
	least := slices.MinFunc(ps, func(a, b program) int { return a.depth - b.depth }).depth
	seen := map[string]bool{}
	var out []program
	for _, p := range ps {
		if p.depth == least && !seen[p.name] {
			seen[p.name] = true
			out = append(out, p)
		}
	}
	return out
}

func (w *oneShot) check(g *gate) error {
	w.refs = make([]digest, len(w.progs))
	for i, p := range w.progs {
		ref, err := g.oneShotRef(p)
		if err != nil {
			return err
		}
		w.refs[i] = ref
	}
	return nil
}

// oneShotSetups is about how many times a one-shot run sets up, at even
// intervals of its measured time.
const oneShotSetups = 9

// run executes whole passes over the programs until the run time is
// spent. A pass is as short as a set-up on the corpus, so it sets up again
// only every oneShotSetups-th of the run.
func (w *oneShot) run(tr *tracer, resetup func() error) (runResult, error) {
	var res runResult
	var counts passCounts
	var sinceSetup time.Duration
	for pass := 0; pass == 0 || res.elapsed < w.seconds; pass++ {
		if sinceSetup >= w.seconds/oneShotSetups {
			if err := resetup(); err != nil {
				return runResult{}, err
			}
			sinceSetup = 0
		}
		start := time.Now()
		for i, p := range w.progs {
			id := len(res.ops)
			t0 := time.Now()
			root := tr.begin("op", id, -1)
			out, err := pipeline(p, analysisWorkers, tr, id, root)
			var sum digest
			if err == nil {
				sum = sha256.Sum256([]byte(out.text))
			}
			tr.end(root)
			res.ops = append(res.ops, op{lat: time.Since(t0), miss: true, ok: err == nil && sum == w.refs[i], prog: p.name, slot: i})
			if tr != nil && pass == 0 && err == nil {
				counts.add(out)
			}
		}
		d := time.Since(start)
		res.elapsed += d
		sinceSetup += d
	}
	if tr != nil {
		res.layers = counts.metrics()
	}
	return res, nil
}

func (w *oneShot) close() {}

// passCounts sums the work counters of one pass (one op per program, each
// on a fresh Space), which makes them independent of run length.
type passCounts struct {
	steps, evictions, exact, fallbacks  int
	lookups, hits                       uint64
	verdicts, interned, handles, parCnt int
}

func (c *passCounts) add(out *pipelineOut) {
	c.steps += out.info.FixpointSteps
	ct := out.info.ContextTableStats()
	c.evictions += ct.Evictions
	c.exact += ct.Exact
	c.fallbacks += ct.FallbackAnalyses
	st := out.info.PathSpace().Stats()
	c.lookups += st.MemoHits + st.MemoMisses
	c.hits += st.MemoHits
	c.verdicts += st.Verdicts()
	c.interned += st.InternedPaths
	c.handles += out.space.InternedHandles()
	c.parCnt += out.par.Stats.ParStatements
}

func (c *passCounts) metrics() map[string]float64 {
	return map[string]float64{
		"analysis.fixpoint_steps":    float64(c.steps),
		"analysis.context_evictions": float64(c.evictions),
		"analysis.contexts_exact":    float64(c.exact),
		"analysis.fallback_analyses": float64(c.fallbacks),
		"path.memo_lookups":          float64(c.lookups),
		"path.memo_verdicts":         float64(c.verdicts),
		"path.interned_paths":        float64(c.interned),
		"path.memo_hit_rate":         ratio(float64(c.hits), float64(c.lookups)),
		"matrix.interned_handles":    float64(c.handles),
		"par.par_statements":         float64(c.parCnt),
	}
}

// ---- serve-zipf: the read side of the service over loopback HTTP ----

const (
	// zipfRate is the open-loop arrival rate R in requests per second:
	// half the closed-loop capacity of the server on one CPU (about 2,900
	// requests/s), so the server stays out of overload even while the
	// host takes the second vCPU away. With both CPUs the capacity is
	// about 11,700 requests/s.
	zipfRate = 1500.0
	// zipfWarmup requests run before each timed pass, closed-loop, to fill
	// the result cache and the summary store.
	zipfWarmup = 2000
	// zipfPass is the length of one timed pass: the Poisson schedule that
	// every pass replays.
	zipfPass = 5 * time.Second
	// zipfClients bounds in-flight requests and connections.
	zipfClients = 2
	// latencyLimit is L: only responses within it count toward goodput.
	latencyLimit = 25 * time.Millisecond
	// drainLimit bounds how long past the schedule the generator keeps
	// sending to a backlog; later requests count as failed.
	drainLimit = 30 * time.Second
)

type serveZipf struct {
	seed    int64
	seconds time.Duration

	pop    []program
	bodies [][]byte
	warm   []int // popularity ranks of the warm-up requests
	timed  []int // popularity ranks of the timed requests
	due    []time.Duration
	refs   []digest

	handler http.Handler
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
}

// setup generates the inputs, replaces the server with a fresh one and
// warms it up: closed loop, as fast as the clients go.
func (w *serveZipf) setup() error {
	w.close()
	var err error
	if w.pop, err = zipfPopulation(w.seed); err != nil {
		return err
	}
	w.bodies = make([][]byte, len(w.pop))
	for i, p := range w.pop {
		if w.bodies[i], err = json.Marshal(service.Request{Name: p.name, Source: p.source, Roots: p.roots}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(w.pop)-1))
	w.warm = make([]int, zipfWarmup)
	for i := range w.warm {
		w.warm[i] = int(zipf.Uint64())
	}
	w.due = poissonSchedule(rng, zipfRate, zipfPass)
	w.timed = make([]int, len(w.due))
	for i := range w.timed {
		w.timed[i] = int(zipf.Uint64())
	}

	w.handler = service.NewHandler(service.New(serviceOptions()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/analyze"
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: zipfClients, MaxIdleConnsPerHost: zipfClients}}

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, zipfClients)
	for c := range zipfClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.warm) {
					return
				}
				if r := w.post(w.warm[i]); r.status != http.StatusOK {
					errs[c] = fmt.Errorf("warm-up request %d: status %d %v", i, r.status, r.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reply is one /v1/analyze response as the client saw it.
type reply struct {
	status int
	hit    bool
	sum    digest
	err    error
}

func (w *serveZipf) post(rank int) reply {
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[rank]))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, hit: resp.Header.Get(service.CacheHeader) == "hit", err: err}
	// The handler terminates a single-program body with one newline.
	r.sum = sha256.Sum256(bytes.TrimSuffix(body, []byte("\n")))
	return r
}

func (w *serveZipf) check(g *gate) error {
	for _, base := range corpusPrograms(0) {
		if _, err := g.oneShotRef(base); err != nil {
			return err
		}
	}
	w.refs = make([]digest, len(w.pop))
	for i, p := range w.pop {
		ref, _, err := g.serviceRef(service.Request{Name: p.name, Source: p.source, Roots: p.roots})
		if err != nil {
			return err
		}
		w.refs[i] = ref
	}
	return nil
}

// run replays the timed schedule in passes of zipfPass until the run time
// is spent, each pass on a fresh, warmed-up server, so each request of the
// schedule (op.slot) meets the same cache state in every pass.
func (w *serveZipf) run(tr *tracer, resetup func() error) (runResult, error) {
	var res runResult
	var busy, queued, hitLat, lateMs []float64
	totals := exposition{}
	pass := 0
	for ; pass == 0 || res.elapsed < w.seconds; pass++ {
		if pass > 0 {
			if err := resetup(); err != nil {
				return runResult{}, err
			}
		}
		before, err := scrapeMetrics(w.handler)
		if err != nil {
			return runResult{}, err
		}
		replies := make([]reply, len(w.due))
		var tick func()
		if tr != nil {
			tick = func() {
				if m, err := scrapeMetrics(w.handler); err == nil {
					b, _ := m.sum("sil_sessions_busy")
					q, _ := m.sum("sil_queue_depth")
					busy, queued = append(busy, b), append(queued, q)
				}
			}
		}
		t0 := time.Now()
		sends := openLoop(realClock{t0}, w.due, zipfClients, zipfPass+drainLimit,
			func(i int) { replies[i] = w.post(w.timed[i]) }, tick, 100*time.Millisecond)
		res.elapsed += max(time.Since(t0), zipfPass)
		for i, s := range sends {
			r := replies[i]
			ok := !s.skipped && r.err == nil && r.status == http.StatusOK && r.sum == w.refs[w.timed[i]]
			id := len(res.ops)
			res.ops = append(res.ops, op{lat: s.latency(), miss: !r.hit, ok: ok, prog: w.pop[w.timed[i]].name, slot: i})
			if tr != nil {
				root := tr.add("op", id, -1, t0, s.due, s.end)
				tr.add("service.http", id, root, t0, s.start, s.end)
				lateMs = append(lateMs, ms(s.late()))
				if r.hit {
					hitLat = append(hitLat, ms(s.end-s.start))
				}
			}
		}
		if tr != nil {
			after, err := scrapeMetrics(w.handler)
			if err != nil {
				return runResult{}, err
			}
			totals.addDelta(before, after)
		}
	}
	if tr == nil {
		return res, nil
	}
	res.layers = serviceLayers(exposition{}, totals.perPass(pass))
	res.layers["service.sessions_busy"] = mean(busy)
	res.layers["service.queue_depth"] = mean(queued)
	res.layers["service.http.hit_latency_ms_p50"] = quantile(hitLat, 0.5)
	res.layers["loadgen.late_ms_p99"] = quantile(lateMs, 0.99)
	return res, nil
}

func (w *serveZipf) close() {
	if w.srv == nil {
		return
	}
	w.srv.Close()
	<-w.served
	w.client.CloseIdleConnections()
	w.srv = nil
}

// serviceLayers derives the service metrics from two /v1/metrics scrapes.
// Families the service does not export read as 0.
func serviceLayers(before, after exposition) map[string]float64 {
	d := func(family string, labels ...string) float64 {
		v, _ := delta(before, after, family, labels...)
		return v
	}
	hits, misses := d("sil_cache_hits_total"), d("sil_cache_misses_total")
	sHits, sMisses := d("sil_summary_hits_total"), d("sil_summary_misses_total")
	out := map[string]float64{
		"service.hit_rate":              ratio(hits, hits+misses),
		"service.evictions":             d("sil_cache_evictions_total"),
		"service.coalesced":             d("sil_coalesced_total"),
		"service.shed":                  d("sil_admission_shed_total"),
		"service.summary_hit_rate":      ratio(sHits, sHits+sMisses),
		"service.summary_invalidations": d("sil_summary_invalidations_total"),
	}
	for _, phase := range []string{"parse", "fingerprint", "fixpoint", "render"} {
		label := fmt.Sprintf("phase=%q", phase)
		out["service.phase_"+phase+"_ms"] = 1000 * ratio(d("sil_phase_seconds_sum", label), d("sil_phase_seconds_count", label))
	}
	return out
}

// ---- edit-session: the write side of the service, in process ----

type editSessions struct {
	seed    int64
	seconds time.Duration

	bases []program
	svc   *service.Service
	reqs  []service.Request
	refs  []digest
	cold  []time.Duration
}

// setup compiles the bases, warms up on a throwaway service and builds
// the empty service the next pass runs on.
func (w *editSessions) setup() error {
	w.bases = editBases()
	if err := compileAll(w.bases); err != nil {
		return err
	}
	warm := service.New(serviceOptions())
	for _, p := range cheapest(w.bases) {
		if resp := warm.Analyze(context.Background(), service.Request{Name: p.name, Source: p.source, Roots: p.roots}); resp.Err != nil {
			return fmt.Errorf("%s: %v", p.name, resp.Err)
		}
	}
	w.svc = service.New(serviceOptions())
	return nil
}

// check generates the run's sessions and computes the reference bytes,
// and the cold latency, of every distinct source in them.
func (w *editSessions) check(g *gate) error {
	for _, p := range w.bases {
		if _, err := g.oneShotRef(p); err != nil {
			return err
		}
	}
	var err error
	if w.reqs, err = editStream(w.bases, w.seed); err != nil {
		return err
	}
	type ref struct {
		sum  digest
		cold time.Duration
	}
	seen := map[string]ref{}
	w.refs = make([]digest, len(w.reqs))
	w.cold = make([]time.Duration, len(w.reqs))
	for i, req := range w.reqs {
		r, ok := seen[req.Source]
		if !ok {
			if r.sum, r.cold, err = g.serviceRef(req); err != nil {
				return err
			}
			seen[req.Source] = r
		}
		w.refs[i], w.cold[i] = r.sum, r.cold
	}
	return nil
}

// run plays the whole request stream in passes until the timed part of
// the run is spent, each pass on a fresh service. Every pass therefore
// meets the same cache and summary-store states (op.slot).
func (w *editSessions) run(tr *tracer, resetup func() error) (runResult, error) {
	var res runResult
	totals := exposition{}
	pass := 0
	for ; pass == 0 || res.elapsed < w.seconds; pass++ {
		if pass > 0 {
			if err := resetup(); err != nil {
				return runResult{}, err
			}
		}
		handler := service.NewHandler(w.svc)
		var before exposition
		if tr != nil {
			var err error
			if before, err = scrapeMetrics(handler); err != nil {
				return runResult{}, err
			}
		}
		start := time.Now()
		for slot, req := range w.reqs {
			id := len(res.ops)
			t0 := time.Now()
			root := tr.begin("op", id, -1)
			s := tr.begin("service.analyze", id, root)
			resp := w.svc.Analyze(context.Background(), req)
			tr.end(s)
			ok := resp.Err == nil && sha256.Sum256(resp.Body) == w.refs[slot]
			tr.end(root)
			res.ops = append(res.ops, op{lat: time.Since(t0), miss: !resp.Cached, ok: ok, prog: req.Name, slot: slot})
		}
		res.elapsed += time.Since(start)
		if tr != nil {
			after, err := scrapeMetrics(handler)
			if err != nil {
				return runResult{}, err
			}
			totals.addDelta(before, after)
		}
	}
	if tr == nil {
		return res, nil
	}
	res.layers = serviceLayers(exposition{}, totals.perPass(pass))
	var warmOverCold []float64
	for _, o := range fastestPerSlot(res.ops) {
		if o.miss {
			warmOverCold = append(warmOverCold, float64(o.lat)/float64(w.cold[o.slot]))
		}
	}
	res.layers["service.warm_over_cold"] = quantile(warmOverCold, 0.5)
	return res, nil
}

func (w *editSessions) close() {}
