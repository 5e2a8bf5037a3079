package path

import (
	"slices"
	"strings"
)

// Limits bounds the abstract domain so that the iterative approximation of
// §4 (Figure 3) and the recursive procedure summaries of §5.2 terminate.
// They are the knobs of the E-AB2 widening ablation.
type Limits struct {
	// MaxExact is the largest exact edge count kept in a segment; larger
	// counts are widened to the >= form (the paper's +).
	MaxExact int
	// MaxSegs is the largest number of direction runs kept in one path;
	// longer paths have their suffix collapsed into a single D segment.
	MaxSegs int
	// MaxPaths is the widest path set kept per matrix entry; wider sets are
	// collapsed (non-S members fold into D+? / D^{>=m}?).
	MaxPaths int
}

// DefaultLimits are generous enough to keep every figure of the paper exact
// while still guaranteeing termination.
var DefaultLimits = Limits{MaxExact: 8, MaxSegs: 6, MaxPaths: 8}

// fixKey packs the limits into the non-zero word a Set records as its
// Widen-fixpoint mark. Limits with a field outside [0, 2^21) pack to 0 and
// are never recorded (such sets are simply re-widened every time).
func (lim Limits) fixKey() uint64 {
	const width = 21
	if uint(lim.MaxExact)>>width != 0 || uint(lim.MaxSegs)>>width != 0 || uint(lim.MaxPaths)>>width != 0 {
		return 0
	}
	return 1<<63 | uint64(lim.MaxExact)<<(2*width) | uint64(lim.MaxSegs)<<width | uint64(lim.MaxPaths)
}

// inBounds reports whether every member already meets the structural bounds
// under lim: at most MaxPaths members, at most MaxSegs segments per path,
// and no exact segment count above MaxExact.
func (s Set) inBounds(lim Limits) bool {
	if len(s.ps) > lim.MaxPaths {
		return false
	}
	for _, p := range s.ps {
		segs := p.segs()
		if len(segs) > lim.MaxSegs {
			return false
		}
		for _, sg := range segs {
			if !sg.Inf && sg.Min > lim.MaxExact {
				return false
			}
		}
	}
	return true
}

// widenPath applies the per-path structural bounds.
func widenPath(p Path, lim Limits) Path {
	segs := p.segs()
	changed := false
	for i, s := range segs {
		if !s.Inf && s.Min > lim.MaxExact {
			if !changed {
				segs = append([]Seg(nil), segs...)
				changed = true
			}
			segs[i] = Seg{Dir: s.Dir, Min: lim.MaxExact, Inf: true}
		}
	}
	if !changed && len(segs) <= lim.MaxSegs {
		return p // within bounds: already canonical and interned
	}
	if len(segs) > lim.MaxSegs {
		// Collapse the suffix beyond MaxSegs-1 into one D segment that
		// covers at least the collapsed minimum length.
		keep := lim.MaxSegs - 1
		min, inf := 0, false
		for _, s := range segs[keep:] {
			min += s.Min
			inf = inf || s.Inf
		}
		collapsed := Seg{Dir: DownD, Min: min, Inf: true}
		_ = inf // the collapse is already a >= form
		// The full-capacity slice makes append copy, so p's interned
		// segments are never written.
		segs = append(segs[:keep:keep], collapsed)
		// Direction was approximated, so the path is merely possible now
		// unless it already subsumed: collapsing to D^{>=min} still covers
		// the original language, so definiteness is preserved for
		// existence; but the expression is weaker. Existence is what the
		// flag asserts, so keep it.
	}
	return newPathIn(spaceOf(procSpace, p), segs, p.possible)
}

// Set is a canonical set of paths: the estimate of the relationship between
// two handles (one path-matrix entry). The zero value is the empty set,
// meaning "no downward path from the row handle to the column handle".
//
// Sets are value-like: operations return new sets and never mutate inputs.
type Set struct {
	ps []Path // sorted by Compare, unique by expression
	// fp is the order-independent 128-bit fingerprint of the members,
	// maintained incrementally at construction (see fp.go).
	fp [2]uint64
	// fix is the Limits.fixKey under which the members are known to be a
	// Widen fixpoint, or 0. It caches a property of the members alone, so
	// an operation that returns its input unchanged keeps it, every other
	// construction starts without it, and Equal ignores it.
	fix uint64
}

// EmptySet is the entry for unrelated handles.
func EmptySet() Set { return Set{} }

// NewSet builds a canonical set from the given paths. When the same
// expression occurs both definite and possible, definite wins (it is the
// stronger statement along the may/must axis used by the analysis: the set
// records all possible relationships, and the flag upgrades one to a
// guarantee).
func NewSet(paths ...Path) Set { return build(slices.Clone(paths)) }

// build is the canonicalizing constructor behind every bulk operation: it
// takes ownership of ps, sorts it once by Compare (which puts each
// expression's definite spelling first), and keeps the first member per
// expression. The result equals folding Add over ps in any order.
func build(ps []Path) Set {
	if len(ps) > 1 {
		slices.SortFunc(ps, Path.Compare)
		ps = slices.CompactFunc(ps, Path.EqualExpr)
	}
	return mkSet(ps)
}

// cmpExpr orders members by expression alone: the set layout order, in
// which Compare consults the definiteness flag only between equal
// expressions.
func cmpExpr(p, q Path) int {
	if p.node == q.node {
		return 0
	}
	return compareSegs(p.segs(), q.segs())
}

// IsEmpty reports whether the handles are unrelated.
func (s Set) IsEmpty() bool { return len(s.ps) == 0 }

// Len returns the number of distinct path expressions.
func (s Set) Len() int { return len(s.ps) }

// Paths returns the canonical contents. Callers must not modify the slice.
func (s Set) Paths() []Path { return s.ps }

// Add returns s with p included, keeping canonical form. A new expression
// is inserted at its binary-searched position in one exact-size copy.
// Upgrading an existing possible member to definite replaces it in place:
// the flag flip cannot reorder it, since members are unique by expression
// (pinned by the canonical-order property test in set_test.go).
func (s Set) Add(p Path) Set {
	i, found := slices.BinarySearchFunc(s.ps, p, cmpExpr)
	if found {
		q := s.ps[i]
		if !q.possible || p.possible {
			return s
		}
		out := slices.Clone(s.ps)
		out[i] = p
		fp := s.fp
		of, nf := pathFP(q), pathFP(p)
		fp[0] += nf[0] - of[0]
		fp[1] += nf[1] - of[1]
		return Set{ps: out, fp: fp}
	}
	out := make([]Path, len(s.ps)+1)
	copy(out, s.ps[:i])
	out[i] = p
	copy(out[i+1:], s.ps[i:])
	f := pathFP(p)
	return Set{ps: out, fp: [2]uint64{s.fp[0] + f[0], s.fp[1] + f[1]}}
}

// Union returns the union of two sets collected along a single control-flow
// path (definite-wins on duplicate expressions). Unions with an empty
// operand share the other set unchanged — sets are immutable values, and
// Matrix.Rename funnels every entry through here.
func (s Set) Union(t Set) Set {
	if len(s.ps) == 0 {
		return t
	}
	if len(t.ps) == 0 {
		return s
	}
	return merge(s, t, false)
}

// MergeJoin combines estimates from two alternative control-flow paths
// (if/else arms, loop iterations). A path expression is definite in the
// result only if it is definite in both inputs; expressions present on only
// one side survive as possible. Joining equal sets returns s itself.
func (s Set) MergeJoin(t Set) Set {
	if s.Equal(t) {
		return s
	}
	return merge(s, t, true)
}

// merge walks two canonical member lists in layout order, so its output is
// canonical without a sort. An expression in both lists keeps its definite
// spelling (Union), or under join stays definite only when definite in
// both; under join an expression in one list only becomes possible.
func merge(s, t Set, join bool) Set {
	var buf [16]Path
	out := buf[:0]
	one := func(p Path) Path {
		if join {
			return p.AsPossible()
		}
		return p
	}
	i, j := 0, 0
	for i < len(s.ps) && j < len(t.ps) {
		p, q := s.ps[i], t.ps[j]
		switch c := cmpExpr(p, q); {
		case c < 0:
			out = append(out, one(p))
			i++
		case c > 0:
			out = append(out, one(q))
			j++
		default:
			if join {
				p.possible = p.possible || q.possible
			} else {
				p.possible = p.possible && q.possible
			}
			out = append(out, p)
			i++
			j++
		}
	}
	for ; i < len(s.ps); i++ {
		out = append(out, one(s.ps[i]))
	}
	for ; j < len(t.ps); j++ {
		out = append(out, one(t.ps[j]))
	}
	return mkSet(slices.Clone(out))
}

// Demote returns s with every path for which cond holds downgraded to
// possible (used by the a.f := b kill rule). cond sees every member in
// order, whatever its flag: its language queries are memoized, so skipping
// one would change the Space's verdict table.
func (s Set) Demote(cond func(Path) bool) Set {
	var out []Path
	for i, p := range s.ps {
		if !cond(p) || p.possible {
			continue
		}
		if out == nil {
			out = slices.Clone(s.ps)
		}
		out[i] = p.AsPossible()
	}
	if out == nil {
		return s
	}
	return mkSet(out)
}

// Filter returns the subset satisfying keep, which sees every member in
// order (as Demote's cond does).
func (s Set) Filter(keep func(Path) bool) Set {
	var out []Path
	for i, p := range s.ps {
		switch {
		case !keep(p):
			if out == nil {
				out = make([]Path, i, len(s.ps)-1)
				copy(out, s.ps[:i])
			}
		case out != nil:
			out = append(out, p)
		}
	}
	if out == nil {
		return s
	}
	return mkSet(out)
}

// ExtendAll appends one edge in direction d to every member. Results stay
// in each member's Space; an S member extends into the process default —
// callers whose sets may contain S in a private Space use Space.ExtendAll.
func (s Set) ExtendAll(d Dir) Set {
	out := make([]Path, len(s.ps))
	for i, p := range s.ps {
		out[i] = p.Extend(d)
	}
	return build(out)
}

// ExtendAll appends one edge in direction d to every member, interning the
// results in sp (required when the set may contain S).
func (sp *Space) ExtendAll(s Set, d Dir) Set {
	out := make([]Path, len(s.ps))
	for i, p := range s.ps {
		out[i] = sp.Extend(p, d)
	}
	return build(out)
}

// ConcatAll returns {p·q : p ∈ s, q ∈ t}.
func (s Set) ConcatAll(t Set) Set {
	out := make([]Path, 0, len(s.ps)*len(t.ps))
	for _, p := range s.ps {
		for _, q := range t.ps {
			out = append(out, p.Concat(q))
		}
	}
	return build(out)
}

// ResidueAll computes the entry for (b.f → x) from the entry for (b → x).
func (s Set) ResidueAll(f Dir) Set {
	var out []Path
	for _, p := range s.ps {
		out = append(out, p.Residue(f)...)
	}
	return build(out)
}

// Widen applies the domain bounds: per-path structural bounds, then
// subsumption-dropping of covered possible members, then — only if the set
// is still too wide — direction-preserving signature collapse, and as a
// last resort a fold into a single D^{>=m}? member.
//
// A result that already meets the bounds (see Set.inBounds) is a fixpoint —
// widening it again returns it unchanged — and is marked with lim, so
// widening it again under the same limits returns at once. Other results
// are not marked: the suffix collapse can leave an exact segment above
// MaxExact (canon absorbs an L^{>=9} next to the new D^{>=m} into L9),
// which a second Widen would bound again.
func (s Set) Widen(lim Limits) Set {
	key := lim.fixKey()
	if len(s.ps) == 0 || (key != 0 && s.fix == key) {
		return s
	}
	out := s.widen(lim)
	if key != 0 && out.inBounds(lim) {
		out.fix = key
	}
	return out
}

// widen is Widen without the fixpoint record.
func (s Set) widen(lim Limits) Set {
	out := s
	var ps []Path // copy-on-write: allocated when a member first changes
	for i, p := range s.ps {
		w := widenPath(p, lim)
		if ps == nil && w.Equal(p) {
			continue
		}
		if ps == nil {
			ps = slices.Clone(s.ps)
		}
		ps[i] = w
	}
	if ps != nil {
		out = build(ps)
	}
	out = out.dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	out = out.collapseBySignature().dropSubsumed()
	if out.Len() <= lim.MaxPaths {
		return out
	}
	// Too wide: keep an S member if present, fold the rest into one
	// possible D^{>=m} covering every collapsed path. The fold interns into
	// the folded members' Space (min >= 0 implies a non-S member, so the
	// owner is always derivable).
	var collapsed Set
	min := -1
	var own *Space
	hadSame := false
	samePossible := true
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
	if hadSame {
		if samePossible {
			collapsed = collapsed.Add(SamePossible())
		} else {
			collapsed = collapsed.Add(Same())
		}
	}
	if min >= 0 {
		if min < 1 {
			min = 1
		}
		collapsed = collapsed.Add(newPathIn(own, []Seg{AtLeast(DownD, min)}, true))
	}
	return collapsed
}

// dropSubsumed removes possible members whose language is covered by some
// other member; definite members are never dropped (they carry a stronger
// existence guarantee). Intern-time canonicalization (canon's absorption
// rule) gives every language exactly one spelling, so two distinct members
// can never subsume each other mutually and coverage is a strict partial
// order on the set: a maximal member always survives, and dropping every
// covered member cannot empty a non-empty set.
func (s Set) dropSubsumed() Set {
	if len(s.ps) < 2 {
		return s
	}
	var keep []Path // copy-on-write: allocated at the first dropped member
	for i, q := range s.ps {
		covered := false
		if q.Possible() {
			for j, p := range s.ps {
				if i != j && !q.EqualExpr(p) && Subsumes(p, q) {
					covered = true
					break
				}
			}
		}
		switch {
		case covered && keep == nil:
			keep = make([]Path, i, len(s.ps)-1)
			copy(keep, s.ps[:i])
		case !covered && keep != nil:
			keep = append(keep, q)
		}
	}
	if keep == nil {
		return s
	}
	return mkSet(keep)
}

// collapseBySignature merges members sharing the same direction signature
// into one generalized path (L1, L2 → L+; L1R2, L2R1 → L+R+), preserving
// direction information that the final D-collapse would lose. The merged
// path is definite only when every merged member was.
func (s Set) collapseBySignature() Set {
	// groups[i] lists the members sharing one signature, in member order;
	// groups are ordered by their first member.
	var groups [][]Path
	for _, p := range s.ps {
		i := slices.IndexFunc(groups, func(g []Path) bool { return sameSignature(g[0], p) })
		if i < 0 {
			groups = append(groups, nil)
			i = len(groups) - 1
		}
		groups[i] = append(groups[i], p)
	}
	out := make([]Path, 0, len(groups))
	for _, g := range groups {
		if len(g) == 1 {
			out = append(out, g[0])
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
		out = append(out, newPathIn(spaceOf(procSpace, first), segs, !definite))
	}
	return build(out)
}

// sameSignature reports whether p and q run through the same sequence of
// directions (their segment counts may differ only if the directions do).
func sameSignature(p, q Path) bool {
	return slices.EqualFunc(p.segs(), q.segs(), func(a, b Seg) bool { return a.Dir == b.Dir })
}

// Equal reports set equality including definiteness flags. The fingerprint
// comparison is a fast reject; equality is still decided structurally.
func (s Set) Equal(t Set) bool {
	if s.fp != t.fp || len(s.ps) != len(t.ps) {
		return false
	}
	for i := range s.ps {
		if !s.ps[i].Equal(t.ps[i]) {
			return false
		}
	}
	return true
}

// HasSame reports whether the set contains S or S? — i.e. the two handles
// may refer to the same node (the alias condition of §5.1's A function).
func (s Set) HasSame() bool {
	for _, p := range s.ps {
		if p.IsSame() {
			return true
		}
	}
	return false
}

// HasDefiniteSame reports whether the set contains definite S — the two
// handles certainly refer to the same node.
func (s Set) HasDefiniteSame() bool {
	for _, p := range s.ps {
		if p.IsSame() && p.Definite() {
			return true
		}
	}
	return false
}

// HasDefinite reports whether any member is definite.
func (s Set) HasDefinite() bool {
	for _, p := range s.ps {
		if p.Definite() {
			return true
		}
	}
	return false
}

// AllPossible returns the set with every member demoted to possible.
func (s Set) AllPossible() Set {
	return s.Demote(func(Path) bool { return true })
}

// MayOverlapSet reports whether some path of s and some path of t can
// denote the same node (both sets rooted at the same handle).
func MayOverlapSet(s, t Set) bool {
	for _, p := range s.ps {
		for _, q := range t.ps {
			if MayOverlap(p, q) {
				return true
			}
		}
	}
	return false
}

// String renders the set in paper notation: members separated by ", ",
// or "{}" for the empty set.
func (s Set) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, len(s.ps))
	for i, p := range s.ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// ParseSet parses the String form back into a set interned in the
// process-default Space; it accepts the notation used throughout the
// paper's figures ("S", "L1L+", "R1D+?", comma separated). It is the test
// helper that lets figure-replay tests state expected matrices in the
// paper's own syntax.
func ParseSet(src string) (Set, error) { return procSpace.ParseSet(src) }

// ParseSet parses the String form back into a set owned by sp.
func (sp *Space) ParseSet(src string) (Set, error) {
	src = strings.TrimSpace(src)
	if src == "" || src == "{}" {
		return EmptySet(), nil
	}
	parts := strings.Split(src, ",")
	out := make([]Path, len(parts))
	for i, part := range parts {
		p, err := sp.Parse(strings.TrimSpace(part))
		if err != nil {
			return Set{}, err
		}
		out[i] = p
	}
	return build(out), nil
}
