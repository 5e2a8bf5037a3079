package path

import (
	"sync"
	"sync/atomic"
)

// A Space owns every table behind the path-expression algebra: the sharded
// intern table that canonicalizes expressions to unique nodes, the memoized
// verdict shards for the language questions (Subsumes, MayOverlap,
// MayStrictPrefix), and the residue cache. PR 1 made these tables
// process-global and append-only — the degenerate no-eviction cache policy.
// A Space makes the epoch explicit so a long-lived service can return the
// memory between analysis batches, and NewSpace lets that service give
// each worker its own independent table set:
//
//	sp := path.NewSpace()  // a private Space with its own epoch lifecycle
//	stats := sp.Stats()    // table sizes + memo hit rate
//	sp.Reset()             // drop every table, start an epoch
//
// Every interned node remembers its owning Space, so derived operations
// (Extend, Concat, Residue, Widen, the verdict questions) stay inside the
// operands' Space automatically; only operations that create a non-empty
// expression from nothing — New, NewPossible, Parse, and extending S —
// need the explicit *Space-receiver forms. The package-level forms use the
// process-default Space, a convenience for one-shot CLI runs and tests.
//
// Epoch contract: Reset must not run concurrently with operations on the
// same Space, and Path, Set, or matrix values created before a Reset must
// not be mixed into values built after it — the old interned nodes are no
// longer in the table, so a re-interned equal expression would compare
// unequal. Node IDs are allocated from one process-wide monotonic counter
// and never reused across epochs or Spaces, which keeps the failure mode
// of a violated contract benign: a stale value (from an old epoch or a
// foreign Space) can at worst miss the fresh caches, never collide with a
// live ID and corrupt a verdict.
type Space struct {
	shards [internShards]internShard
	// interned counts the nodes in the current epoch's table.
	interned atomic.Int64
	epoch    atomic.Uint64

	subsume memoTable
	overlap memoTable
	prefix  memoTable
	residue residueTable

	hookMu sync.Mutex
	hooks  []func()
}

func newSpace() *Space {
	sp := &Space{}
	for i := range sp.shards {
		sp.shards[i].m = make(map[uint64][]*pnode)
	}
	sp.residue.m = make(map[uint64][]Path)
	return sp
}

// NewSpace builds an independent Space with its own intern, memo, and
// residue tables and its own epoch lifecycle. Resetting one Space never
// touches another, which is what lets a sharded service give every session
// worker a private Space and keep epoch resets worker-local.
func NewSpace() *Space { return newSpace() }

// procSpace is the process default every package-level path operation uses.
var procSpace = newSpace()

// DefaultSpace returns the process-wide default Space (the convenience for
// one-shot CLI runs; long-lived services construct their own via NewSpace).
func DefaultSpace() *Space { return procSpace }

// Epoch returns the number of Resets this Space has seen.
func (sp *Space) Epoch() uint64 { return sp.epoch.Load() }

// OnReset registers a hook run at the end of every Reset. Packages layered
// on top of path (e.g. the matrix handle interner) use it to tie their own
// epoch-scoped tables to the same reset, so one call drops the whole
// analysis cache hierarchy.
func (sp *Space) OnReset(f func()) {
	sp.hookMu.Lock()
	sp.hooks = append(sp.hooks, f)
	sp.hookMu.Unlock()
}

// Reset starts a new epoch: the intern table, the three verdict memo
// tables, and the residue cache are replaced by fresh empty maps (returning
// their memory to the allocator) and the hit/miss counters restart at zero.
// See the type comment for the epoch contract.
func (sp *Space) Reset() {
	sp.epoch.Add(1)
	for i := range sp.shards {
		sh := &sp.shards[i]
		sh.mu.Lock()
		sh.m = make(map[uint64][]*pnode)
		sh.mu.Unlock()
	}
	sp.interned.Store(0)
	sp.subsume.reset()
	sp.overlap.reset()
	sp.prefix.reset()
	sp.residue.mu.Lock()
	sp.residue.m = make(map[uint64][]Path)
	sp.residue.mu.Unlock()
	sp.hookMu.Lock()
	hooks := append([]func(){}, sp.hooks...)
	sp.hookMu.Unlock()
	for _, f := range hooks {
		f()
	}
}

// SpaceStats is a point-in-time snapshot of a Space's table sizes and memo
// traffic (the monitoring surface for /v1/stats and the bench/ layer counters).
type SpaceStats struct {
	Epoch           uint64
	InternedPaths   int
	SubsumeVerdicts int
	OverlapVerdicts int
	PrefixVerdicts  int
	ResidueEntries  int
	MemoHits        uint64
	MemoMisses      uint64
}

// Verdicts is the total number of memoized language-question verdicts.
func (st SpaceStats) Verdicts() int {
	return st.SubsumeVerdicts + st.OverlapVerdicts + st.PrefixVerdicts
}

// Stats snapshots the current epoch's table sizes and counters.
func (sp *Space) Stats() SpaceStats {
	st := SpaceStats{
		Epoch:           sp.epoch.Load(),
		InternedPaths:   int(sp.interned.Load()),
		SubsumeVerdicts: sp.subsume.size(),
		OverlapVerdicts: sp.overlap.size(),
		PrefixVerdicts:  sp.prefix.size(),
	}
	for _, t := range []*memoTable{&sp.subsume, &sp.overlap, &sp.prefix} {
		h, m := t.traffic()
		st.MemoHits += h
		st.MemoMisses += m
	}
	sp.residue.mu.RLock()
	st.ResidueEntries = len(sp.residue.m)
	sp.residue.mu.RUnlock()
	return st
}
