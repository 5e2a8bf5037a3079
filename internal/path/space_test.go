package path

import (
	"sync"
	"testing"
	"testing/quick"
)

// TestCanonicalEqualLanguages: intern-time canonicalization gives every
// path language exactly one spelling. The decisive oracle is the exact
// subsumption procedure: mutual inclusion means equal languages, which
// must mean the same interned node. This is the invariant that lets
// dropSubsumed drop every covered possible member without the old
// mutual-subsumption tie break.
func TestCanonicalEqualLanguages(t *testing.T) {
	cases := []struct{ a, b string }{
		{"R+D2+", "R1D2+"}, // the ROADMAP example
		{"L+D+", "L1D+"},
		{"D+L+", "D+L1"},
		{"L+D+L+", "L1D+L1"},
		{"L2+D+", "L2D+"},
		{"D3+R+", "D3+R1"},
	}
	for _, c := range cases {
		p, q := MustParse(c.a), MustParse(c.b)
		if p.ID() != q.ID() {
			t.Errorf("%s and %s denote the same language but interned apart (%s vs %s)",
				c.a, c.b, p.ExprString(), q.ExprString())
		}
	}
	// Spellings that must NOT collapse (the absorption rule requires an
	// adjacent D^{>=m} neighbor).
	distinct := []struct{ a, b string }{
		{"L+D1", "L1D1"},
		{"L+D2", "L2D2"},
		{"L+R1D+", "L1R1D+"},
		{"L+", "L1"},
	}
	for _, c := range distinct {
		if MustParse(c.a).ID() == MustParse(c.b).ID() {
			t.Errorf("%s and %s denote different languages but interned together", c.a, c.b)
		}
	}
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		if Subsumes(p, q) && Subsumes(q, p) && p.ID() != q.ID() {
			t.Logf("equal languages, distinct nodes: %s vs %s", p.ExprString(), q.ExprString())
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestSpaceResetDropsTables: Reset must return every table to size zero
// (the memory bound of the long-lived service mode), restart the counters,
// and leave the algebra fully functional — fresh interning and fresh
// verdicts must agree with the uncached decision procedures.
func TestSpaceResetDropsTables(t *testing.T) {
	sp := DefaultSpace()
	p, q := MustParse("L1D2+"), MustParse("L+D+")
	_ = Subsumes(p, q)
	_ = MayOverlap(p, q)
	_ = MayStrictPrefix(p, q)
	_ = p.Residue(LeftD)
	st := sp.Stats()
	if st.InternedPaths == 0 || st.Verdicts() == 0 || st.ResidueEntries == 0 {
		t.Fatalf("tables unexpectedly empty before reset: %+v", st)
	}
	epoch := sp.Epoch()
	sp.Reset()
	st = sp.Stats()
	if st.InternedPaths != 0 || st.Verdicts() != 0 || st.ResidueEntries != 0 ||
		st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Fatalf("counters must drop to zero after Reset: %+v", st)
	}
	if sp.Epoch() != epoch+1 {
		t.Fatalf("epoch = %d, want %d", sp.Epoch(), epoch+1)
	}
	// The new epoch re-interns and re-memoizes correctly.
	f := func(a, b concretePathGen) bool {
		p, q := a.path(), b.path()
		return Subsumes(p, q) == subsumesSlow(p.Segs(), q.Segs()) &&
			MayOverlap(p, q) == mayOverlapSlow(p.Segs(), q.Segs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if sp.Stats().InternedPaths == 0 {
		t.Error("new epoch should intern again")
	}
	if sp.InternedCount() != sp.Stats().InternedPaths {
		t.Error("InternedCount must track the current epoch")
	}
}

// TestSpaceResetHooks: OnReset hooks run on every Reset (the mechanism the
// matrix handle table uses to join the epoch).
func TestSpaceResetHooks(t *testing.T) {
	sp := DefaultSpace()
	var mu sync.Mutex
	calls := 0
	sp.OnReset(func() { mu.Lock(); calls++; mu.Unlock() })
	sp.Reset()
	sp.Reset()
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("hook ran %d times, want 2", calls)
	}
}

// TestStaleEpochPathsAreBenign documents the failure mode of a violated
// epoch contract: a Path interned before a Reset keeps working against
// itself (pointer identity) and can never share an ID with a node interned
// afterwards, because IDs are not reused across epochs.
func TestStaleEpochPathsAreBenign(t *testing.T) {
	sp := DefaultSpace()
	stale := MustParse("L3R2D1")
	sp.Reset()
	fresh := MustParse("L3R2D1")
	if stale.ID() == fresh.ID() {
		t.Error("IDs must not be reused across epochs")
	}
	if !stale.Equal(stale) || stale.Equal(fresh) {
		t.Error("stale paths compare by identity only")
	}
}
