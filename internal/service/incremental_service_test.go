package service

import (
	"context"

	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/progs"
)

// Service-level incremental-analysis suite: the summary store must never
// change a rendered body (warm == cold, byte for byte), and its counters
// must move the way the keying rule promises — an edit invalidates
// exactly the edited procedure's dependents while everything else stays
// warm.

// threeProcV1/V2 differ in ONE procedure body (shift's increment), so a
// resubmit of V2 after V1 must hit the store for bump (body and cohort
// untouched), miss for shift (body changed) and main (cohort changed),
// and invalidate main's stale record (same body, new key).
const threeProcV1 = `
program threeproc
procedure main()
  a, b: handle
begin
  bump(a);
  shift(b)
end;
procedure bump(h: handle)
begin
  if h <> nil then
  begin
    h.value := h.value + 1
  end
end;
procedure shift(h: handle)
begin
  if h <> nil then
  begin
    h.value := h.value + 2
  end
end;
`

const threeProcV2 = `
program threeproc
procedure main()
  a, b: handle
begin
  bump(a);
  shift(b)
end;
procedure bump(h: handle)
begin
  if h <> nil then
  begin
    h.value := h.value + 1
  end
end;
procedure shift(h: handle)
begin
  if h <> nil then
  begin
    h.value := h.value + 3
  end
end;
`

// TestSummaryWarmEqualsColdCorpus pins the service-level warm-equals-cold
// contract over the whole corpus: with the result cache disabled, every
// resubmit re-analyzes seeded from the summary store, and the body must
// stay byte-identical to a cold service's.
func TestSummaryWarmEqualsColdCorpus(t *testing.T) {
	for _, e := range progs.Catalog {
		ref := New(Options{})
		want := ref.Analyze(context.Background(), Request{Name: e.Name, Source: e.Source, Roots: e.Roots})
		if want.Err != nil {
			t.Fatalf("%s: %v", e.Name, want.Err)
		}
		svc := New(Options{CacheCapacity: -1})
		for pass := 0; pass < 3; pass++ {
			got := svc.Analyze(context.Background(), Request{Name: e.Name, Source: e.Source, Roots: e.Roots})
			if got.Err != nil {
				t.Fatalf("%s pass %d: %v", e.Name, pass, got.Err)
			}
			if !bytes.Equal(got.Body, want.Body) {
				t.Errorf("%s pass %d: warm body diverged from cold\n got: %s\nwant: %s",
					e.Name, pass, got.Body, want.Body)
				break
			}
		}
		st := svc.Stats()
		if st.SummaryStore.Hits == 0 {
			t.Errorf("%s: no summary-store hits across warm passes", e.Name)
		}
	}
}

// TestSummaryStoreEditWarmPath walks the edit lifecycle and checks every
// counter transition.
func TestSummaryStoreEditWarmPath(t *testing.T) {
	svc := New(Options{CacheCapacity: -1})

	// Cold: all three procedures miss and are stored.
	if resp := svc.Analyze(context.Background(), Request{Source: threeProcV1}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	st := svc.Stats().SummaryStore
	if st.Misses != 3 || st.Hits != 0 || st.Entries != 3 {
		t.Fatalf("after cold: %+v", st)
	}

	// Identical resubmit: every procedure hits.
	if resp := svc.Analyze(context.Background(), Request{Source: threeProcV1}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	st = svc.Stats().SummaryStore
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("after resubmit: %+v", st)
	}

	// Edit shift: bump stays warm (1 hit); shift (new body) and main (new
	// cohort) miss; main's stale record is invalidated by its body
	// fingerprint, shift's old record merely goes stale in LRU.
	resp := svc.Analyze(context.Background(), Request{Source: threeProcV2})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	st = svc.Stats().SummaryStore
	if st.Hits != 4 {
		t.Errorf("bump did not stay warm across the edit: %+v", st)
	}
	if st.Misses != 5 {
		t.Errorf("edited shift/main should re-miss: %+v", st)
	}
	if st.Invalidations != 1 {
		t.Errorf("main's stale record should be the one invalidation: %+v", st)
	}
	if st.Entries != 4 { // v1{main,bump,shift} - main + v2{main,shift}
		t.Errorf("entry count after edit: %+v", st)
	}

	// The edited warm body matches a cold service's bit for bit.
	cold := New(Options{}).Analyze(context.Background(), Request{Source: threeProcV2})
	if cold.Err != nil {
		t.Fatal(cold.Err)
	}
	if !bytes.Equal(resp.Body, cold.Body) {
		t.Errorf("edited warm body diverged:\n got: %s\nwant: %s", resp.Body, cold.Body)
	}
}

// TestSummaryKeysDistinctWithinSCC is the regression pin for the cohort
// aliasing bug: members of one SCC share their reachable closure, so a
// set-only cohort key handed even's store slot to odd's summary. The key
// must distinguish the procedure itself.
func TestSummaryKeysDistinctWithinSCC(t *testing.T) {
	prog := progs.MustCompile(progs.MutualWalk)
	fps := ProcFingerprints(prog)
	even, odd := fps["even"], fps["odd"]
	if even.Body == odd.Body {
		t.Fatal("distinct bodies share a body fingerprint")
	}
	if even.Cohort == odd.Cohort {
		t.Fatal("SCC members share a cohort fingerprint — store records would alias")
	}
	// And the cohort still ignores everything outside the closure: main
	// reaches both, so its cohort differs from either.
	if fps["main"].Cohort == even.Cohort || fps["main"].Cohort == odd.Cohort {
		t.Fatal("caller cohort collides with callee cohort")
	}
}

// TestLRUSummaryStore unit-tests the store's LRU and invalidation policy.
func TestLRUSummaryStore(t *testing.T) {
	st := newSummaryStore(2)
	mk := func(hi uint64) Fp { return Fp{Hi: hi, Lo: hi} }
	rec := &analysis.ProcSeed{}
	st.put(mk(1), mk(101), rec)
	st.put(mk(2), mk(102), rec)
	if _, ok := st.get(mk(1)); !ok { // refresh 1: now 2 is LRU
		t.Fatal("warm record missing")
	}
	st.put(mk(3), mk(103), rec) // evicts 2
	if _, ok := st.get(mk(2)); ok {
		t.Fatal("LRU record not evicted")
	}
	if _, ok := st.get(mk(1)); !ok {
		t.Fatal("refreshed record evicted instead of LRU")
	}
	// Same body under a new key invalidates the old record.
	st.put(mk(4), mk(103), rec)
	if _, ok := st.get(mk(3)); ok {
		t.Fatal("stale record for re-keyed body not invalidated")
	}
	s := st.stats()
	if s.Evictions != 1 || s.Invalidations != 1 || s.Entries != 2 || s.Capacity != 2 {
		t.Fatalf("stats: %+v", s)
	}
	// Re-put of an existing key keeps the incumbent (no growth).
	st.put(mk(4), mk(103), rec)
	if got := st.stats().Entries; got != 2 {
		t.Fatalf("same-key re-put grew the store to %d", got)
	}
}

// TestSummaryStoreDisabled: a negative capacity turns the store off; the
// service still answers correctly and reports zero store counters.
func TestSummaryStoreDisabled(t *testing.T) {
	svc := New(Options{SummaryCapacity: -1, CacheCapacity: -1})
	want := New(Options{}).Analyze(context.Background(), Request{Source: threeProcV1})
	for pass := 0; pass < 2; pass++ {
		got := svc.Analyze(context.Background(), Request{Source: threeProcV1})
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatal("storeless body diverged")
		}
	}
	if st := svc.Stats().SummaryStore; st != (SummaryStoreStats{}) {
		t.Fatalf("disabled store reported activity: %+v", st)
	}
}

// TestRequestLimitsOverride covers the per-request Limits satellite:
// validation, reflection in the document, and fingerprint separation.
func TestRequestLimitsOverride(t *testing.T) {
	svc := New(Options{})

	bad := svc.Analyze(context.Background(), Request{Source: threeProcV1, Limits: &LimitsSpec{MaxExact: -1}})
	if bad.Err == nil || bad.Err.Status != 400 {
		t.Fatalf("negative limit accepted: %+v", bad.Err)
	}

	def := svc.Analyze(context.Background(), Request{Source: threeProcV1})
	if def.Err != nil {
		t.Fatal(def.Err)
	}
	tight := svc.Analyze(context.Background(), Request{Source: threeProcV1, Limits: &LimitsSpec{MaxPaths: 2}})
	if tight.Err != nil {
		t.Fatal(tight.Err)
	}
	if def.Fingerprint == tight.Fingerprint {
		t.Error("limits override did not separate result fingerprints")
	}
	var doc ResultDoc
	if err := json.Unmarshal(tight.Body, &doc); err != nil {
		t.Fatal(err)
	}
	// Zero fields keep the defaults; the override is reflected verbatim.
	if doc.Limits != (LimitsDoc{MaxExact: 8, MaxSegs: 6, MaxPaths: 2}) {
		t.Errorf("effective limits misreflected: %+v", doc.Limits)
	}
	// Both variants live in the result cache independently.
	st := svc.Stats()
	if st.CacheSize != 2 {
		t.Errorf("cache size %d, want 2 (default + override)", st.CacheSize)
	}
}
