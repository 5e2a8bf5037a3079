package path

import (
	"sync"
	"sync/atomic"
)

// Memoization of the language questions on interned path expressions.
// Because interning gives every distinct expression a unique small ID, a
// verdict for a pair of expressions is cached once per Space epoch under
// the key id(a)<<32 | id(b) and every later query is a map hit instead of
// an NFA product walk. The widening limits bound the universe of
// expressions, so the tables stay small within one epoch; like the intern
// table they are sharded and mutex-guarded for the concurrent analysis
// fixpoint, owned by the Space, and dropped wholesale by Space.Reset.

// pairKey builds the directed cache key for an (a, b) expression pair.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// overlapKey is pairKey with the operands ordered: MayOverlap is symmetric,
// so both query directions share one cache line.
func overlapKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return pairKey(a, b)
}

// memoShard carries its own hit/miss counters so the hot lookup path never
// touches a cache line shared across shards (a table-wide counter would
// serialize every worker of the concurrent fixpoint on one atomic word).
type memoShard struct {
	mu     sync.RWMutex
	m      map[uint64]bool
	hits   atomic.Uint64
	misses atomic.Uint64
}

// memoTable is a sharded (key → verdict) cache with hit/miss counters.
type memoTable struct {
	shards [internShards]memoShard
}

func (t *memoTable) lookup(key uint64) (verdict, ok bool) {
	sh := &t.shards[key%internShards]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
	return v, ok
}

func (t *memoTable) store(key uint64, v bool) {
	sh := &t.shards[key%internShards]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]bool)
	}
	sh.m[key] = v
	sh.mu.Unlock()
}

func (t *memoTable) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// traffic sums the per-shard hit/miss counters.
func (t *memoTable) traffic() (hits, misses uint64) {
	for i := range t.shards {
		sh := &t.shards[i]
		hits += sh.hits.Load()
		misses += sh.misses.Load()
	}
	return hits, misses
}

// reset drops every shard's map and restarts the counters (Space.Reset).
func (t *memoTable) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
		sh.hits.Store(0)
		sh.misses.Store(0)
	}
}

// residueTable caches Residue results per (expression, direction), computed
// on the definite form; Path.Residue adjusts flags for possible inputs.
// The cached slices are immutable.
type residueTable struct {
	mu sync.RWMutex
	m  map[uint64][]Path
}

// residueMemo caches in the node's owning Space, so residues of a private
// Space's expressions never touch another Space's tables.
func residueMemo(n *pnode, f Dir) []Path {
	t := &n.sp.residue
	key := uint64(n.id)<<2 | uint64(f)
	t.mu.RLock()
	r, ok := t.m[key]
	t.mu.RUnlock()
	if ok {
		return r
	}
	r = residueCompute(n, f)
	t.mu.Lock()
	t.m[key] = r
	t.mu.Unlock()
	return r
}
