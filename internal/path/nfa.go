package path

import (
	"math/bits"
	"slices"
)

// This file decides language questions about path expressions by viewing
// each path as a tiny regular expression over the two-letter edge alphabet
// {l, r}: L^i = l^i, L+ = l l*, D^i = (l|r)^i, D+ = (l|r)(l|r)*, and so on.
// The interference analyses of §5 need exactly two such questions:
//
//	MayOverlap(p, q)  — can p and q denote the same concrete path?
//	                    (used to decide whether two access paths rooted at
//	                    the same handle can reach the same node)
//	MayStrictPrefix(p, q) — can some word of p be a proper prefix of some
//	                    word of q? (used to decide whether an update through
//	                    an edge at the end of p can invalidate a path q)
//
// Both reduce to emptiness of the product of two small NFAs, which for the
// segment-run shape of path expressions is linear-time in practice.

// nfa is a position automaton for one path expression. State k means "k
// edges of the expression have been consumed", where edge positions are the
// unrolled Min-runs of each segment; a segment with Inf contributes a
// self-loop on its last position.
type nfa struct {
	// labels[k] is the direction constraint of the edge leaving state k
	// (entering state k+1). len(labels) = number of states - 1.
	labels []Dir
	// loop[k] reports that state k+1 has a self-loop consuming labels[k]
	// (the Inf tail of a segment).
	loop []bool
}

// buildNFA unrolls the path's segments into the position automaton.
// The accepting state is len(labels).
func buildNFA(segs []Seg) nfa {
	n := 0
	for _, s := range segs {
		n += s.Min
	}
	labels := make([]Dir, 0, n)
	loop := make([]bool, 0, n)
	for _, s := range segs {
		for i := 0; i < s.Min; i++ {
			labels = append(labels, s.Dir)
			loop = append(loop, s.Inf && i == s.Min-1)
		}
	}
	return nfa{labels: labels, loop: loop}
}

// steps enumerates the successor states of state k on a concrete letter
// (LeftD or RightD). There are at most two: advance, and self-loop.
func (m nfa) steps(k int, letter Dir, visit func(int)) {
	if k < len(m.labels) && subsumesDir(m.labels[k], letter) {
		visit(k + 1)
	}
	if k > 0 && k <= len(m.loop) && m.loop[k-1] && subsumesDir(m.labels[k-1], letter) {
		visit(k) // stay on the Inf tail
	}
}

func (m nfa) accept(k int) bool { return k == len(m.labels) }

// productReach explores the reachable product states of automata a and b and
// reports whether any state satisfying ok is reachable.
func productReach(a, b nfa, ok func(ka, kb int) bool) bool {
	type st struct{ ka, kb int }
	seen := map[st]bool{{0, 0}: true}
	work := []st{{0, 0}}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if ok(s.ka, s.kb) {
			return true
		}
		for _, letter := range []Dir{LeftD, RightD} {
			a.steps(s.ka, letter, func(na int) {
				b.steps(s.kb, letter, func(nb int) {
					n := st{na, nb}
					if !seen[n] {
						seen[n] = true
						work = append(work, n)
					}
				})
			})
		}
	}
	return false
}

// MayOverlap reports whether the two path expressions can denote the same
// concrete edge sequence — i.e. whether, starting from a common node, the
// two paths can land on the same node. Definiteness flags are ignored; this
// is a may-question. S overlaps only with paths that can be empty (only S).
// Verdicts are memoized on the interned (ID, ID) pair in the operands'
// owning Space; see memo.go.
func MayOverlap(p, q Path) bool {
	if p.node == q.node {
		return true // every path expression denotes at least one word
	}
	if p.node == nil || q.node == nil {
		return false // S denotes only the empty word; non-S paths never do
	}
	key := overlapKey(p.node.id, q.node.id)
	memo := &p.node.sp.overlap
	if v, ok := memo.lookup(key); ok {
		return v
	}
	v := mayOverlapSlow(p.node.segs, q.node.segs)
	memo.store(key, v)
	return v
}

func mayOverlapSlow(ps, qs []Seg) bool {
	a, b := buildNFA(ps), buildNFA(qs)
	return productReach(a, b, func(ka, kb int) bool { return a.accept(ka) && b.accept(kb) })
}

// MayStrictPrefix reports whether some word denoted by p is a strict prefix
// of some word denoted by q: equivalently L(p)·Σ+ ∩ L(q) ≠ ∅. When true, a
// node reached by p can lie strictly on the way to a node reached by q.
// Verdicts are memoized on the interned (ID, ID) pair; see memo.go.
func MayStrictPrefix(p, q Path) bool {
	if q.node == nil {
		return false // nothing is strictly longer than the empty word
	}
	if p.node == nil {
		return true // the empty word prefixes every non-empty word
	}
	key := pairKey(p.node.id, q.node.id)
	memo := &p.node.sp.prefix
	if v, ok := memo.lookup(key); ok {
		return v
	}
	v := mayStrictPrefixSlow(p.node.segs, q.node.segs)
	memo.store(key, v)
	return v
}

func mayStrictPrefixSlow(ps, qs []Seg) bool {
	a, b := buildNFA(ps), buildNFA(qs)
	// Reach a state where p has accepted; then require q to consume at
	// least one more letter and still be able to accept.
	type st struct {
		kb       int
		consumed bool // one extra letter consumed after p accepted
	}
	// First compute all q-states reachable at the moment p accepts.
	var starts []int
	seenStart := map[int]bool{}
	productReach(a, b, func(ka, kb int) bool {
		if a.accept(ka) && !seenStart[kb] {
			seenStart[kb] = true
			starts = append(starts, kb)
		}
		return false
	})
	// Then ask whether from any such q-state, >= 1 more letters lead to
	// acceptance of q.
	seen := map[st]bool{}
	var work []st
	for _, kb := range starts {
		s := st{kb, false}
		if !seen[s] {
			seen[s] = true
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		if s.consumed && b.accept(s.kb) {
			return true
		}
		for _, letter := range []Dir{LeftD, RightD} {
			b.steps(s.kb, letter, func(nb int) {
				n := st{nb, true}
				if !seen[n] {
					seen[n] = true
					work = append(work, n)
				}
			})
		}
	}
	return false
}

// MayRouteThrough reports whether a path pxy (x→y) may pass through the
// f-edge out of a node reached from x by pa (x→a). It decides
// L(pa · f · Σ*) ∩ L(pxy) ≠ ∅ and is the kill-test used by the transfer
// function for the update a.f := b: any x→y path that may route through
// a's old f edge can no longer be considered definite. The pa·f prefix
// interns into the operands' Space (pa may be S, so pxy's Space breaks the
// tie; the process default only when both are S).
func MayRouteThrough(pxy, pa Path, f Dir) bool {
	return spaceOf(procSpace, pa, pxy).MayRouteThrough(pxy, pa, f)
}

// MayRouteThrough is the explicit-Space form: the pa·f prefix interns into
// sp (required when both operands may be S).
func (sp *Space) MayRouteThrough(pxy, pa Path, f Dir) bool {
	prefix := sp.Extend(pa, f)
	if MayOverlap(prefix, pxy) {
		return true
	}
	return MayStrictPrefix(prefix, pxy)
}

// MayDescend reports whether q can reach nodes strictly below where p ends,
// or the same node (p may be a non-strict prefix of q).
func MayDescend(p, q Path) bool {
	return MayOverlap(p, q) || MayStrictPrefix(p, q)
}

// Subsumes reports language inclusion L(q) ⊆ L(p): every concrete path q
// can denote is also denoted by p. The widening uses it to drop possible
// paths already covered by a wider member (e.g. L1? and L2+? inside L+?),
// which is what makes the Figure 3 iteration converge to the paper's L+.
//
// Decision: walk the product of q's NFA with the on-the-fly determinized
// p-NFA; a counterexample is a reachable state where q accepts but no
// p-state does. Verdicts are memoized on the interned (ID, ID) pair.
func Subsumes(p, q Path) bool {
	if p.node == q.node {
		return true
	}
	if q.node == nil || p.node == nil {
		// S ⊆ p only when p can denote the empty word (only S itself, ruled
		// out above); q ⊆ S likewise requires q = S.
		return false
	}
	key := pairKey(p.node.id, q.node.id)
	memo := &p.node.sp.subsume
	if v, ok := memo.lookup(key); ok {
		return v
	}
	v := subsumesSlow(p.node.segs, q.node.segs)
	memo.store(key, v)
	return v
}

// subsumesSlow decides L(q) ⊆ L(p) by walking the product of q's NFA with
// the subset construction of p's: a counterexample is a reachable state
// where q accepts but no p-state does. A p-state set is a bitset of
// len(labels)/64+1 words, so the same walk serves any MaxExact.
func subsumesSlow(ps, qs []Seg) bool {
	pn, qn := buildNFA(ps), buildNFA(qs)
	acc := len(pn.labels)
	qstates := len(qn.labels) + 1
	t := subsetTable{
		w:     acc/64 + 1,
		sets:  make([]uint64, 0, 2*qstates*(acc/64+1)),
		kq:    make([]int32, 0, 2*qstates),
		next:  make([]int32, 0, 2*qstates),
		first: make([]int32, qstates),
	}
	cur, nxt := make([]uint64, t.w), make([]uint64, t.w)
	nxt[0] = 1
	t.add(0, nxt)
	// The table doubles as the breadth-first work queue.
	for i := 0; i < len(t.kq); i++ {
		kq := int(t.kq[i])
		copy(cur, t.set(i))
		if qn.accept(kq) && cur[acc/64]&(1<<(acc%64)) == 0 {
			return false
		}
		for _, letter := range [2]Dir{LeftD, RightD} {
			pn.stepSet(cur, letter, nxt)
			qn.steps(kq, letter, func(nq int) { t.add(nq, nxt) })
		}
	}
	return true
}

// stepSet writes into next the states reachable from the set cur on one
// concrete letter (nfa.steps lifted to bitsets).
func (m nfa) stepSet(cur []uint64, letter Dir, next []uint64) {
	clear(next)
	for w, word := range cur {
		for word != 0 {
			k := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			m.steps(k, letter, func(n int) { next[n/64] |= 1 << (n % 64) })
		}
	}
}

// subsetTable records the visited (q-state, p-state set) pairs of
// subsumesSlow's walk, chained per q-state.
type subsetTable struct {
	w     int      // words per p-state set
	sets  []uint64 // pair i's p-state set is sets[i*w : (i+1)*w]
	kq    []int32  // pair i's q-state
	next  []int32  // previous pair at the same q-state, plus one (0 ends)
	first []int32  // last pair recorded at each q-state, plus one (0: none)
}

func (t *subsetTable) set(i int) []uint64 { return t.sets[i*t.w : (i+1)*t.w] }

// add records the pair (kq, set) unless it was already visited; set is
// copied.
func (t *subsetTable) add(kq int, set []uint64) {
	for i := t.first[kq]; i != 0; i = t.next[i-1] {
		if slices.Equal(t.set(int(i-1)), set) {
			return
		}
	}
	t.sets = append(t.sets, set...)
	t.kq = append(t.kq, int32(kq))
	t.next = append(t.next, t.first[kq])
	t.first[kq] = int32(len(t.kq))
}
