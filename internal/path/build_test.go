package path

// Tests for the canonicalizing builder and the Widen fixpoint record: every
// bulk constructor must produce exactly the set that folding Add over its
// members produced before (member order, flags, fingerprint), a set marked
// as a Widen fixpoint must really be one, and the fast paths must not
// allocate.

import (
	"fmt"
	"math/rand"
	"testing"
)

// foldAdd is the reference constructor: Add one member at a time.
func foldAdd(ps ...Path) Set {
	var s Set
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

// identical reports whether two sets agree member by member (expression
// and flag, in layout order) and in their fingerprints.
func identical(got, want Set) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("got %s, want %s", got, want)
	}
	for i := range got.ps {
		if !got.ps[i].Equal(want.ps[i]) {
			return fmt.Errorf("member %d: got %s, want %s", i, got, want)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("fingerprint differs for %s", got)
	}
	return nil
}

// findExpr returns the member of s with p's expression.
func findExpr(s Set, p Path) (Path, bool) {
	for _, q := range s.ps {
		if q.EqualExpr(p) {
			return q, true
		}
	}
	return Path{}, false
}

// refCollapseBySignature is the map-and-string grouping the signature
// collapse used before, folding with Add.
func refCollapseBySignature(s Set) Set {
	groups := map[string][]Path{}
	var order []string
	for _, p := range s.ps {
		sig := ""
		for _, seg := range p.segs() {
			sig += seg.Dir.String()
		}
		if _, ok := groups[sig]; !ok {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], p)
	}
	var out Set
	for _, sig := range order {
		g := groups[sig]
		if len(g) == 1 {
			out = out.Add(g[0])
			continue
		}
		first := g[0]
		segs := append([]Seg(nil), first.segs()...)
		definite := first.Definite()
		for _, p := range g[1:] {
			definite = definite && p.Definite()
			for i := range segs {
				o := p.segs()[i]
				if o.Min < segs[i].Min {
					segs[i] = Seg{Dir: segs[i].Dir, Min: o.Min, Inf: true}
				} else if o.Min > segs[i].Min || o.Inf {
					segs[i] = Seg{Dir: segs[i].Dir, Min: segs[i].Min, Inf: true}
				}
			}
		}
		out = out.Add(newPathIn(spaceOf(procSpace, first), segs, !definite))
	}
	return out
}

// refWiden is Widen as a fold of Add, without the fixpoint record.
func refWiden(s Set, lim Limits) Set {
	var out Set
	for _, p := range s.ps {
		out = out.Add(widenPath(p, lim))
	}
	out = out.dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	out = refCollapseBySignature(out).dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	min, hadSame, samePossible := -1, false, true
	var own *Space
	for _, p := range out.ps {
		if p.IsSame() {
			hadSame = true
			samePossible = samePossible && p.Possible()
			continue
		}
		if own == nil {
			own = p.node.sp
		}
		if m := p.MinLen(); min < 0 || m < min {
			min = m
		}
	}
	var collapsed Set
	if hadSame {
		collapsed = collapsed.Add(Path{possible: samePossible})
	}
	if min >= 0 {
		collapsed = collapsed.Add(newPathIn(own, []Seg{AtLeast(DownD, max(min, 1))}, true))
	}
	return collapsed
}

// memberGen draws set members from a small pool of expressions so that
// duplicate expressions with mixed flags are common.
type memberGen struct {
	rng  *rand.Rand
	pool []Path
}

func newMemberGen(seed int64, sp *Space, pool, maxSegs int) *memberGen {
	g := &memberGen{rng: rand.New(rand.NewSource(seed)), pool: []Path{Same()}}
	for len(g.pool) < pool {
		segs := make([]Seg, 1+g.rng.Intn(maxSegs))
		for i := range segs {
			segs[i] = Seg{Dir: Dir(g.rng.Intn(3)), Min: 1 + g.rng.Intn(4), Inf: g.rng.Intn(2) == 0}
		}
		g.pool = append(g.pool, sp.New(segs...))
	}
	return g
}

func (g *memberGen) paths(n int) []Path {
	out := make([]Path, n)
	for i := range out {
		p := g.pool[g.rng.Intn(len(g.pool))]
		if g.rng.Intn(2) == 0 {
			p = p.AsPossible()
		}
		out[i] = p
	}
	return out
}

// set draws a set of fewer than n members.
func (g *memberGen) set(n int) Set { return foldAdd(g.paths(g.rng.Intn(n))...) }

// TestBulkConstructorsMatchAddFold: every bulk constructor equals the fold
// of Add it replaced, on seeded random members.
func TestBulkConstructorsMatchAddFold(t *testing.T) {
	sp := NewSpace()
	g := newMemberGen(11, sp, 12, 4)
	lims := []Limits{DefaultLimits, {MaxExact: 2, MaxSegs: 3, MaxPaths: 2}}
	for i := 0; i < 600*quickScale(); i++ {
		ps := g.paths(g.rng.Intn(9))
		s, u := g.set(7), g.set(7)
		check := func(op string, got, want Set) {
			t.Helper()
			if err := identical(got, want); err != nil {
				t.Fatalf("%s (case %d, s=%s u=%s): %v", op, i, s, u, err)
			}
		}
		check("NewSet", NewSet(ps...), foldAdd(ps...))
		check("Union", s.Union(u), foldAdd(append(append([]Path(nil), s.ps...), u.ps...)...))

		var join []Path
		for _, p := range s.ps {
			q, ok := findExpr(u, p)
			if !ok || p.Possible() || q.Possible() {
				p = p.AsPossible()
			}
			join = append(join, p)
		}
		for _, q := range u.ps {
			if _, ok := findExpr(s, q); !ok {
				join = append(join, q.AsPossible())
			}
		}
		check("MergeJoin", s.MergeJoin(u), foldAdd(join...))

		cond := func(p Path) bool { return p.NumSegs()%2 == 0 }
		var demoted, kept []Path
		for _, p := range s.ps {
			if cond(p) {
				demoted = append(demoted, p.AsPossible())
				kept = append(kept, p)
			} else {
				demoted = append(demoted, p)
			}
		}
		check("Demote", s.Demote(cond), foldAdd(demoted...))
		check("Filter", s.Filter(cond), foldAdd(kept...))

		d := Dir(i % 3)
		var ext, spExt, res []Path
		for _, p := range s.ps {
			if !p.IsSame() {
				ext = append(ext, p.Extend(d))
			}
			spExt = append(spExt, sp.Extend(p, d))
			res = append(res, p.Residue(d)...)
		}
		noSame := s.Filter(func(p Path) bool { return !p.IsSame() })
		check("ExtendAll", noSame.ExtendAll(d), foldAdd(ext...))
		check("Space.ExtendAll", sp.ExtendAll(s, d), foldAdd(spExt...))
		check("ResidueAll", s.ResidueAll(d), foldAdd(res...))

		var cat []Path
		for _, p := range s.ps {
			for _, q := range u.ps {
				cat = append(cat, p.Concat(q))
			}
		}
		check("ConcatAll", s.ConcatAll(u), foldAdd(cat...))
		check("collapseBySignature", s.collapseBySignature(), refCollapseBySignature(s))
		for _, lim := range lims {
			check(fmt.Sprintf("Widen%+v", lim), s.Widen(lim), refWiden(s, lim))
		}
		if back, err := sp.ParseSet(s.String()); err != nil {
			t.Fatal(err)
		} else {
			check("ParseSet", back, s)
		}
	}
}

// TestWidenFixpointRecord: wherever Widen records its result as a fixpoint,
// widening that result again with the record cleared returns it
// unchanged, under the default limits and tight ones. The pool's long
// paths reach the suffix collapse; small sets keep many results within
// MaxPaths.
func TestWidenFixpointRecord(t *testing.T) {
	for _, lim := range []Limits{DefaultLimits, {MaxExact: 2, MaxSegs: 3, MaxPaths: 2}} {
		g := newMemberGen(7, NewSpace(), 60, 8)
		marked := 0
		for i := 0; i < 2000*quickScale(); i++ {
			s := g.set(4)
			w := s.Widen(lim)
			if w.fix == 0 {
				continue
			}
			if w.fix != lim.fixKey() {
				t.Fatalf("%s marked with %x under %+v", w, w.fix, lim)
			}
			marked++
			again := w
			again.fix = 0
			if got := again.Widen(lim); !got.Equal(w) {
				t.Fatalf("Widen%+v(%s) = %s is marked but re-widens to %s", lim, s, w, got)
			}
		}
		if marked == 0 {
			t.Fatalf("no widened set was marked under %+v", lim)
		}
	}
}

// TestWidenRecordIsPerLimits: a set marked under one Limits is re-widened
// under another.
func TestWidenRecordIsPerLimits(t *testing.T) {
	w := MustParseSet("L5, R1?").Widen(DefaultLimits)
	if w.fix != DefaultLimits.fixKey() {
		t.Fatalf("%s should be marked under the default limits", w)
	}
	tight := Limits{MaxExact: 3, MaxSegs: 6, MaxPaths: 8}
	got := w.Widen(tight)
	if got.String() != "L3+, R1?" {
		t.Fatalf("re-widen under %+v = %s, want L3+, R1?", tight, got)
	}
	if got.fix != tight.fixKey() {
		t.Fatalf("%s should be marked under %+v", got, tight)
	}
}

// TestWidenCollapseNotMarked: the suffix collapse can leave an exact
// segment above MaxExact (canon absorbs R3+ next to the new D2+ into R3),
// so its result is not a fixpoint and must not be marked.
func TestWidenCollapseNotMarked(t *testing.T) {
	lim := Limits{MaxExact: 2, MaxSegs: 3, MaxPaths: 2}
	w := MustParseSet("L1R3+L1R1").Widen(lim)
	if w.String() != "L1R3D2+" {
		t.Fatalf("Widen = %s, want L1R3D2+", w)
	}
	if w.fix != 0 {
		t.Fatalf("%s is not a fixpoint but was marked", w)
	}
	if again := w.Widen(lim); again.Equal(w) {
		t.Fatalf("expected %s to re-widen to a different set", w)
	}
}

// TestSetFastPathAllocs pins the allocation counts of the hot fast paths.
func TestSetFastPathAllocs(t *testing.T) {
	w := MustParseSet("S, L1, L+?, R1D+?").Widen(DefaultLimits)
	if n := testing.AllocsPerRun(100, func() { _ = w.Widen(DefaultLimits) }); n != 0 {
		t.Errorf("Widen of a marked set: %v allocs, want 0", n)
	}
	eq := MustParseSet("S, L1, L+?, R1D+?")
	if n := testing.AllocsPerRun(100, func() { _ = w.MergeJoin(eq) }); n != 0 {
		t.Errorf("MergeJoin of equal sets: %v allocs, want 0", n)
	}
	r1 := MustParse("R1")
	if n := testing.AllocsPerRun(100, func() { _ = w.Add(r1) }); n != 1 {
		t.Errorf("Add of a new member: %v allocs, want 1", n)
	}
}
