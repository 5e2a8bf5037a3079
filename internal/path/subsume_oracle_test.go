package path

// The map-based subset construction that subsumesSlow replaced, kept as an
// oracle: p-state sets are map[int]bool values encoded as '0'/'1' strings
// for the visited set. It is slow but obviously correct, and the bitset
// walk must return exactly its verdicts.

import (
	"math/rand"
	"testing"
)

func subsumesOracle(ps, qs []Seg) bool {
	pn, qn := buildNFA(ps), buildNFA(qs)
	type st struct {
		kq   int
		pset string // sorted p-state set encoding
	}
	encode := func(set map[int]bool) string {
		buf := make([]byte, len(pn.labels)+1)
		for i := range buf {
			if set[i] {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		return string(buf)
	}
	decode := func(s string) map[int]bool {
		set := map[int]bool{}
		for i := 0; i < len(s); i++ {
			if s[i] == '1' {
				set[i] = true
			}
		}
		return set
	}
	pAccepts := func(set map[int]bool) bool { return set[len(pn.labels)] }
	start := st{0, encode(map[int]bool{0: true})}
	seen := map[st]bool{start: true}
	work := []st{start}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		pset := decode(s.pset)
		if qn.accept(s.kq) && !pAccepts(pset) {
			return false
		}
		for _, letter := range []Dir{LeftD, RightD} {
			next := map[int]bool{}
			for kp := range pset {
				pn.steps(kp, letter, func(n int) { next[n] = true })
			}
			qn.steps(s.kq, letter, func(nq int) {
				n := st{nq, encode(next)}
				if !seen[n] {
					seen[n] = true
					work = append(work, n)
				}
			})
		}
	}
	return true
}

// oracleCheck compares subsumesSlow with the oracle on every ordered pair
// of exprs and reports how many pairs each verdict covered.
func oracleCheck(t *testing.T, exprs [][]Seg) (yes, no int) {
	t.Helper()
	for _, p := range exprs {
		for _, q := range exprs {
			got, want := subsumesSlow(p, q), subsumesOracle(p, q)
			if got != want {
				t.Fatalf("subsumesSlow(%v, %v) = %v, oracle %v", p, q, got, want)
			}
			if got {
				yes++
			} else {
				no++
			}
		}
	}
	return yes, no
}

// canonExprs canonicalizes and dedupes raw segment lists.
func canonExprs(raw [][]Seg) [][]Seg {
	seen := map[string]bool{}
	var out [][]Seg
	for _, r := range raw {
		c := canon(r)
		key := New(c...).ExprString()
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out
}

func allSegs(maxMin int) []Seg {
	var out []Seg
	for _, d := range []Dir{LeftD, RightD, DownD} {
		for m := 1; m <= maxMin; m++ {
			out = append(out, Seg{Dir: d, Min: m}, Seg{Dir: d, Min: m, Inf: true})
		}
	}
	return out
}

// TestSubsumesOracleExhaustive compares verdicts on every ordered pair of
// canonical paths with at most two segments (all directions, Min <= 3,
// both Inf flags), S included.
func TestSubsumesOracleExhaustive(t *testing.T) {
	segs := allSegs(3)
	raw := [][]Seg{nil}
	for _, a := range segs {
		raw = append(raw, []Seg{a})
		for _, b := range segs {
			raw = append(raw, []Seg{a, b})
		}
	}
	exprs := canonExprs(raw)
	yes, no := oracleCheck(t, exprs)
	t.Logf("%d expressions, %d included pairs, %d not", len(exprs), yes, no)
}

// TestSubsumesOracleRandom compares verdicts on seeded random paths of
// three to six segments, drawn so that related pairs are common: half of
// the q candidates are mutations of a p candidate.
func TestSubsumesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	segs := allSegs(3)
	randExpr := func() []Seg {
		n := 3 + rng.Intn(4)
		out := make([]Seg, n)
		for i := range out {
			out[i] = segs[rng.Intn(len(segs))]
		}
		return out
	}
	for round := 0; round < 200; round++ {
		var raw [][]Seg
		for i := 0; i < 8; i++ {
			p := randExpr()
			raw = append(raw, p)
			// A widened mutation of p: one segment turned D or made Inf.
			q := append([]Seg(nil), p...)
			k := rng.Intn(len(q))
			if rng.Intn(2) == 0 {
				q[k].Dir = DownD
			} else {
				q[k].Inf = true
			}
			raw = append(raw, q)
		}
		oracleCheck(t, canonExprs(raw))
	}
}

// TestSubsumesOracleWide compares verdicts on paths of more than 64 NFA
// positions, where a p-state set spans several bitset words (a request's
// limits can raise MaxExact that far). The rows avoid an inexact D run
// followed by a long one (D^{>=30}·L2·D^{>=40}): there the reachable p-state
// sets record where the L2 fell, and both deciders run for minutes.
func TestSubsumesOracleWide(t *testing.T) {
	raw := [][]Seg{
		{Exact(LeftD, 70)},
		{AtLeast(LeftD, 70)},
		{AtLeast(LeftD, 65)},
		{Exact(DownD, 70)},
		{AtLeast(DownD, 64)},
		{Exact(LeftD, 40), Exact(RightD, 30)},
		{Exact(LeftD, 40), AtLeast(RightD, 30)},
		{Exact(LeftD, 40), AtLeast(DownD, 30)},
		{AtLeast(DownD, 40), Exact(RightD, 30)},
		{Exact(LeftD, 30), AtLeast(DownD, 20), Exact(RightD, 30)},
		{Exact(LeftD, 30), Exact(DownD, 20), Exact(RightD, 30)},
		{Exact(DownD, 30), Exact(LeftD, 2), AtLeast(DownD, 40)},
		{Exact(LeftD, 1), Exact(RightD, 1)},
		{Plus(DownD)},
	}
	yes, no := oracleCheck(t, canonExprs(raw))
	if yes == 0 || no == 0 {
		t.Fatalf("wide pairs must cover both verdicts: %d included, %d not", yes, no)
	}
}
