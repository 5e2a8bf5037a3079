package service

import (
	"context"

	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/progs"
)

func corpusRequests() []Request {
	var out []Request
	for _, e := range progs.Catalog {
		out = append(out, Request{Name: e.Name, Source: e.Source, Roots: e.Roots})
	}
	return out
}

// TestCachedResponseByteIdentical is the acceptance criterion: for every
// corpus program, the cached response body must be byte-for-byte identical
// to the freshly analyzed one — and a re-analysis with a flushed cache
// must reproduce the same bytes (the render is deterministic, so the cache
// is a pure shortcut, never a change of answer).
func TestCachedResponseByteIdentical(t *testing.T) {
	svc := New(Options{})
	for _, req := range corpusRequests() {
		fresh := svc.Analyze(context.Background(), req)
		if fresh.Err != nil {
			t.Fatalf("%s: %v", req.Name, fresh.Err)
		}
		if fresh.Cached {
			t.Fatalf("%s: first response must be a miss", req.Name)
		}
		cached := svc.Analyze(context.Background(), req)
		if !cached.Cached {
			t.Errorf("%s: second response must be a cache hit", req.Name)
		}
		if !bytes.Equal(fresh.Body, cached.Body) {
			t.Errorf("%s: cached body differs from fresh body", req.Name)
		}
		svc.FlushCache()
		reFresh := svc.Analyze(context.Background(), req)
		if reFresh.Cached {
			t.Fatalf("%s: post-flush response must be a miss", req.Name)
		}
		if !bytes.Equal(fresh.Body, reFresh.Body) {
			t.Errorf("%s: re-analysis after cache flush produced different bytes:\n%s\nvs\n%s",
				req.Name, fresh.Body, reFresh.Body)
		}
		svc.FlushCache()
	}
}

// TestResponsesStableAcrossEpochReset: rendered results never embed
// interned IDs, so forcing Space epoch resets between requests must not
// change a single byte — this is what lets cached bytes outlive epochs.
func TestResponsesStableAcrossEpochReset(t *testing.T) {
	svc := New(Options{CacheCapacity: -1}) // no cache: every request re-analyzes
	reference := map[string][]byte{}
	for _, req := range corpusRequests() {
		resp := svc.Analyze(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		reference[req.Name] = resp.Body
	}
	// Force a new epoch on every session's PRIVATE Space — the Spaces the
	// analyses above actually interned into. The sessions are all idle
	// between requests in this single-threaded test, so resetting directly
	// respects the epoch contract.
	epoch := svc.Stats().Epoch
	for _, sess := range svc.sessionList {
		sess.space.Paths().Reset()
	}
	if got := svc.Stats().Epoch; got != epoch+uint64(len(svc.sessionList)) {
		t.Fatalf("resets did not advance the session epochs: %d -> %d", epoch, got)
	}
	for _, req := range corpusRequests() {
		resp := svc.Analyze(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		if !bytes.Equal(reference[req.Name], resp.Body) {
			t.Errorf("%s: response changed across a Space epoch reset", req.Name)
		}
	}
}

// TestWarmAtLeastFiveTimesFasterThanCold is the acceptance criterion for
// the serving layer's point: on the corpus median, answering from the
// cache must be at least 5x faster than analyzing. (In practice the gap
// is orders of magnitude — a map lookup against a full fixpoint — so the
// 5x bar also holds on noisy CI runners.)
func TestWarmAtLeastFiveTimesFasterThanCold(t *testing.T) {
	svc := New(Options{})
	var speedups []float64
	for _, req := range corpusRequests() {
		start := time.Now()
		resp := svc.Analyze(context.Background(), req)
		cold := time.Since(start)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		// Median of several warm probes: one descheduled lookup must not
		// distort the ratio.
		var warms []time.Duration
		for i := 0; i < 5; i++ {
			start = time.Now()
			warm := svc.Analyze(context.Background(), req)
			warms = append(warms, time.Since(start))
			if !warm.Cached {
				t.Fatalf("%s: warm request missed the cache", req.Name)
			}
		}
		sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
		w := warms[len(warms)/2]
		if w <= 0 {
			w = time.Nanosecond
		}
		speedups = append(speedups, float64(cold)/float64(w))
	}
	sort.Float64s(speedups)
	median := speedups[len(speedups)/2]
	t.Logf("corpus warm-vs-cold speedups: median %.0fx, min %.0fx, max %.0fx",
		median, speedups[0], speedups[len(speedups)-1])
	if median < 5 {
		t.Errorf("median warm speedup %.1fx < 5x", median)
	}
}

// TestBatchMatchesSequential: a batched request must return exactly the
// per-program bytes of sequential requests, in request order, regardless
// of the parallelism underneath.
func TestBatchMatchesSequential(t *testing.T) {
	ref := New(Options{})
	reqs := corpusRequests()
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp := ref.Analyze(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		want[i] = resp.Body
	}
	svc := New(Options{Sessions: 4})
	resps := svc.AnalyzeBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("%s: %v", reqs[i].Name, resp.Err)
		}
		if resp.Name != reqs[i].Name {
			t.Errorf("batch response %d out of order: got %s want %s", i, resp.Name, reqs[i].Name)
		}
		if !bytes.Equal(resp.Body, want[i]) {
			t.Errorf("%s: batched body differs from sequential body", reqs[i].Name)
		}
	}
}

// equivalenceRequests is the session-count equivalence corpus: every
// catalog program plus deterministic random programs (fresh fingerprints
// the catalog never exercises) plus programs that fail to compile
// (diagnostics must be session-count-invariant too).
func equivalenceRequests() []Request {
	reqs := corpusRequests()
	for seed := int64(1); seed <= 12; seed++ {
		reqs = append(reqs, Request{
			Name:   fmt.Sprintf("rnd%d", seed),
			Source: progs.RandomProgram(seed),
		})
	}
	return append(reqs,
		Request{Name: "bad-syntax", Source: "program broken\nprocedure main()\nbegin\n  x := \nend;"},
		Request{Name: "bad-type", Source: "program broken\nprocedure main()\n  x: int\nbegin\n  x := new()\nend;"},
	)
}

// TestSessionCountEquivalence: the same request stream against pools of 1,
// 2, and 8 sessions (each session a private Space) must produce
// byte-identical rendered bodies and identical diagnostics for every
// program. The pool size is a capacity knob, never a semantics knob. Each
// stream runs twice so cache hits are exercised at every pool size.
func TestSessionCountEquivalence(t *testing.T) {
	reqs := equivalenceRequests()
	ref := New(Options{})
	want := make([]Response, len(reqs))
	for i, req := range reqs {
		want[i] = ref.Analyze(context.Background(), req)
	}
	for _, sessions := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			svc := New(Options{Sessions: sessions})
			for pass := 0; pass < 2; pass++ {
				got := svc.AnalyzeBatch(context.Background(), reqs)
				for i, resp := range got {
					w := want[i]
					if (resp.Err == nil) != (w.Err == nil) {
						t.Fatalf("pass %d, %s: error presence diverged: %v vs %v",
							pass, reqs[i].Name, resp.Err, w.Err)
					}
					if resp.Err != nil {
						if resp.Err.Status != w.Err.Status || resp.Err.Msg != w.Err.Msg ||
							!reflect.DeepEqual(resp.Err.Diags, w.Err.Diags) {
							t.Errorf("pass %d, %s: diagnostics diverged across session counts:\n%+v\nvs\n%+v",
								pass, reqs[i].Name, resp.Err, w.Err)
						}
						continue
					}
					if resp.Fingerprint != w.Fingerprint {
						t.Errorf("pass %d, %s: fingerprint diverged: %s vs %s",
							pass, reqs[i].Name, resp.Fingerprint, w.Fingerprint)
					}
					if !bytes.Equal(resp.Body, w.Body) {
						t.Errorf("pass %d, %s: body diverged across session counts", pass, reqs[i].Name)
					}
				}
			}
			// Sanity: with several sessions the analyses must actually
			// spread — an all-on-one-session run would make equivalence
			// vacuous.
			if sessions > 1 {
				busy := 0
				for _, n := range svc.Stats().SessionLoads {
					if n > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Errorf("analyses ran on %d of %d sessions", busy, sessions)
				}
			}
		})
	}
}

// TestConcurrentLoadWithEvictionsAndResets hammers one service from many
// goroutines with a cache too small for the corpus (forcing evictions) and
// an interned-path budget low enough to force epoch resets mid-load. Every
// response must still match the single-threaded reference bytes. Run under
// -race this also pins the session-pool checkout discipline that makes the
// per-session Space resets lock-free.
func TestConcurrentLoadWithEvictionsAndResets(t *testing.T) {
	ref := New(Options{})
	reqs := corpusRequests()
	want := map[string][]byte{}
	for _, req := range reqs {
		resp := ref.Analyze(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		want[req.Name] = resp.Body
	}
	svc := New(Options{
		CacheCapacity:      4,  // corpus is larger: constant evictions
		ResetInternedPaths: 40, // below the corpus working set: epoch resets throughout the load
		Sessions:           4,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(reqs); i++ {
				req := reqs[(g+i)%len(reqs)]
				resp := svc.Analyze(context.Background(), req)
				if resp.Err != nil {
					t.Errorf("%s: %v", req.Name, resp.Err)
					return
				}
				if !bytes.Equal(resp.Body, want[req.Name]) {
					t.Errorf("%s: concurrent response diverged from reference", req.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := svc.Stats()
	t.Logf("load stats: %s", st)
	if st.CacheEvictions == 0 {
		t.Error("load must have forced cache evictions")
	}
	if st.EpochResets == 0 {
		t.Error("load must have forced epoch resets")
	}
	if st.CacheSize > 4 {
		t.Errorf("cache exceeded its capacity: %d > 4", st.CacheSize)
	}
}

// TestResetOnOneShardDoesNotStallAnother: with the cache off and an
// interned-path budget far below any program's working set, every session
// resets its Space after about every analysis. Each session is an isolated
// shard of the analysis state, so several of them must reset while their
// siblings are mid-analysis, and every response must still match the
// single-threaded reference bytes. Under -race this pins that a reset
// touches only the checked-out session's Space.
func TestResetOnOneShardDoesNotStallAnother(t *testing.T) {
	reqs := corpusRequests()
	ref := New(Options{})
	want := map[string][]byte{}
	for _, req := range reqs {
		resp := ref.Analyze(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("%s: %v", req.Name, resp.Err)
		}
		want[req.Name] = resp.Body
	}
	svc := New(Options{
		Sessions:           4,
		CacheCapacity:      -1, // every request analyzes: maximum reset pressure
		ResetInternedPaths: 40, // far below any program's working set: reset after ~every request
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(reqs); i++ {
				req := reqs[(g+i)%len(reqs)]
				resp := svc.Analyze(context.Background(), req)
				if resp.Err != nil {
					t.Errorf("%s: %v", req.Name, resp.Err)
					return
				}
				if !bytes.Equal(resp.Body, want[req.Name]) {
					t.Errorf("%s: response diverged under concurrent resets", req.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := svc.Stats()
	if st.EpochResets == 0 {
		t.Fatal("load must have forced epoch resets")
	}
	resetting := 0
	for _, epoch := range st.SessionEpochs {
		if epoch > 0 {
			resetting++
		}
	}
	if resetting < 2 {
		t.Errorf("only %d session(s) reset; need concurrent resets on several sessions to prove isolation", resetting)
	}
	t.Logf("%s; %d/%d sessions reset", st, resetting, len(st.SessionEpochs))
}

// TestParseErrorIs400 pins the error contract: parse/type failures are
// client errors carrying diagnostics, not server failures.
func TestParseErrorIs400(t *testing.T) {
	svc := New(Options{})
	for name, src := range map[string]string{
		"syntax": "program broken\nprocedure main()\nbegin\n  x := \nend;",
		"type":   "program broken\nprocedure main()\n  x: int\nbegin\n  x := new()\nend;",
		"nomain": "program broken\nprocedure helper()\nbegin\n  helper()\nend;",
	} {
		resp := svc.Analyze(context.Background(), Request{Name: name, Source: src})
		if resp.Err == nil {
			t.Errorf("%s: expected an error", name)
			continue
		}
		if resp.Err.Status != 400 {
			t.Errorf("%s: status = %d, want 400 (%s)", name, resp.Err.Status, resp.Err.Msg)
		}
		if len(resp.Err.Diags) == 0 {
			t.Errorf("%s: 400 must carry diagnostics", name)
		}
	}
}

// TestFingerprintCanonicalization: formatting differences that parse to
// the same structure must share a fingerprint (one cache entry), while a
// structural or option change must not.
func TestFingerprintCanonicalization(t *testing.T) {
	svc := New(Options{})
	spaced := "program p\nprocedure main()\n  a : handle\nbegin\n    a := new( )\nend;"
	compact := "program p procedure main() a: handle begin a := new() end;"
	r1 := svc.Analyze(context.Background(), Request{Source: spaced})
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := svc.Analyze(context.Background(), Request{Source: compact})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Errorf("reformatted source changed the fingerprint: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	if !r2.Cached {
		t.Error("reformatted source must hit the cache")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Error("reformatted source returned different bytes")
	}
	r3 := svc.Analyze(context.Background(), Request{Source: compact, Limits: &LimitsSpec{MaxPaths: 2}})
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Cached || r3.Fingerprint == r1.Fingerprint {
		t.Error("an option change must produce a distinct cache key")
	}
	r4 := svc.Analyze(context.Background(), Request{Source: "program p procedure main() a: handle begin a := nil end;"})
	if r4.Err != nil {
		t.Fatal(r4.Err)
	}
	if r4.Cached || r4.Fingerprint == r1.Fingerprint {
		t.Error("a structural change must produce a distinct cache key")
	}
}

// TestStatsCounters sanity-checks the monitoring surface.
func TestStatsCounters(t *testing.T) {
	svc := New(Options{CacheCapacity: 2})
	reqs := corpusRequests()[:3]
	for _, req := range reqs {
		if resp := svc.Analyze(context.Background(), req); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	// Re-request the last one (still cached: capacity 2 holds the two most
	// recent) and the first one (evicted: a miss).
	if resp := svc.Analyze(context.Background(), reqs[2]); resp.Err != nil || !resp.Cached {
		t.Errorf("most recent program should be cached (err=%v)", resp.Err)
	}
	if resp := svc.Analyze(context.Background(), reqs[0]); resp.Err != nil || resp.Cached {
		t.Errorf("evicted program should re-analyze (err=%v)", resp.Err)
	}
	st := svc.Stats()
	if st.Served != 5 || st.CacheHits != 1 || st.CacheMisses != 4 || st.CacheEvictions < 1 {
		t.Errorf("unexpected counters: %s", st)
	}
	if st.CacheSize != 2 {
		t.Errorf("cache size %d, want 2", st.CacheSize)
	}
	// The document is valid JSON with the fields the dashboard reads.
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"served", "cache_hits", "cache_misses", "hit_rate", "epoch", "interned_paths"} {
		if _, ok := m[k]; !ok {
			t.Errorf("stats document missing %q: %s", k, data)
		}
	}
}

// TestResultDocumentShape decodes one result body and checks the canonical
// document fields, including the deterministic procedure ordering.
func TestResultDocumentShape(t *testing.T) {
	svc := New(Options{})
	resp := svc.Analyze(context.Background(), Request{Name: "add_and_reverse", Source: progs.AddAndReverse})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var doc ResultDoc
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "sil-analysis/v3" || doc.Name != "add_and_reverse" {
		t.Errorf("unexpected document header: %+v", doc)
	}
	for _, gone := range []string{`"mode"`, `"evictions"`} {
		if bytes.Contains(resp.Body, []byte(gone)) {
			t.Errorf("v3 document still carries %s: %s", gone, resp.Body)
		}
	}
	if doc.Limits != (LimitsDoc{MaxExact: 8, MaxSegs: 6, MaxPaths: 8}) {
		t.Errorf("default limits misreflected: %+v", doc.Limits)
	}
	if doc.Fingerprint != resp.Fingerprint {
		t.Error("document fingerprint differs from response fingerprint")
	}
	if doc.ParStatements == 0 {
		t.Error("add_and_reverse must parallelize (Figure 8)")
	}
	var names []string
	for _, p := range doc.Procedures {
		names = append(names, p.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("procedures not sorted: %v", names)
	}
	found := false
	for _, p := range doc.Procedures {
		if p.Name == "add_n" {
			found = true
			if len(p.Params) != 2 || p.Params[0].ReadOnly || p.Params[0].Type != "handle" {
				t.Errorf("add_n params misrendered: %+v", p.Params)
			}
		}
	}
	if !found {
		t.Error("add_n summary missing from the document")
	}
}

// TestCacheHitAcrossRequestNames: the cache key is the canonical program,
// not the request label — and the cached body must be correct for every
// requester, so the document carries the program's DECLARED name (a pure
// function of the source), while Response.Name echoes the label.
func TestCacheHitAcrossRequestNames(t *testing.T) {
	svc := New(Options{})
	a := svc.Analyze(context.Background(), Request{Name: "jobA", Source: progs.TreeDagDemo})
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	b := svc.Analyze(context.Background(), Request{Name: "jobB", Source: progs.TreeDagDemo})
	if b.Err != nil {
		t.Fatal(b.Err)
	}
	if !b.Cached {
		t.Error("same program under a different label must hit the cache")
	}
	if !bytes.Equal(a.Body, b.Body) {
		t.Error("bodies must be byte-identical across request labels")
	}
	if a.Name != "jobA" || b.Name != "jobB" {
		t.Errorf("Response.Name must echo the label: %q, %q", a.Name, b.Name)
	}
	var doc ResultDoc
	if err := json.Unmarshal(b.Body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Name != "dagdemo" {
		t.Errorf("document name = %q, want the declared program name dagdemo", doc.Name)
	}
}

// TestBatchBoundedBySessionPool: a batch far larger than the pool must
// never run more than Sessions programs concurrently, compile included.
func TestBatchBoundedBySessionPool(t *testing.T) {
	svc := New(Options{Sessions: 2, CacheCapacity: -1})
	var reqs []Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, Request{Name: fmt.Sprintf("r%d", i), Source: progs.TreeDagDemo})
	}
	resps := svc.AnalyzeBatch(context.Background(), reqs)
	for _, r := range resps {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}
