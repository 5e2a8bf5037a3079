package matrix

import (
	"sync"

	"repro/internal/path"
)

// Handle interning: every handle name used by any matrix of one Space is
// mapped once to a small ID, and matrix entries are keyed by packed ID
// pairs (uint64) instead of string pairs. Map lookups on the analysis hot
// path then hash one machine word instead of two strings, and IDs are
// stable across matrices of the same Space, so keys survive
// Copy/Merge/Project without re-hashing. The table is mutex-guarded for
// the concurrent analysis fixpoint; handle universes are tiny (program
// variables plus symbolic h*/h** names), so a single RWMutex does not
// contend.

// A Space scopes the handle interner to one path.Space: matrices built in
// the Space intern their handles here and their path sets there, so a
// long-lived service can give every session worker a private matrix Space
// and keep the whole analysis cache hierarchy — paths, memo verdicts, and
// handles — worker-local.
//
// The handle table is epoch-scoped alongside its path.Space's tables: an
// OnReset hook registered at construction drops the handle universe
// whenever the path Space resets, so one Reset call bounds the whole
// hierarchy between batches. The epoch contract of path.Space applies —
// matrices built before a Reset must not be used after it. Because IDs are
// never reused, a stale matrix keeps the benign failure mode the contract
// promises: its packed entry keys can never collide with fresh IDs and
// silently read another handle's entry (lookups miss, and resolving a
// stale ID to a name fails loudly).
type Space struct {
	paths *path.Space

	mu  sync.RWMutex
	ids map[Handle]uint32
	// base is the first ID of the current epoch; like path node IDs,
	// handle IDs are monotonic and never reused across epochs.
	base  uint32
	names []Handle // index (id - base) → name
}

// NewSpace builds a matrix Space bound to ps, tying its handle table to
// ps's epoch lifecycle.
func NewSpace(ps *path.Space) *Space {
	sp := &Space{paths: ps, ids: make(map[Handle]uint32)}
	ps.OnReset(func() {
		sp.mu.Lock()
		sp.base += uint32(len(sp.names))
		sp.ids = make(map[Handle]uint32)
		sp.names = nil
		sp.mu.Unlock()
	})
	return sp
}

// Paths returns the path.Space this matrix Space is bound to.
func (sp *Space) Paths() *path.Space { return sp.paths }

var (
	defaultSpace     *Space
	defaultSpaceOnce sync.Once
)

// DefaultSpace returns the matrix Space bound to path.DefaultSpace() — the
// convenience for one-shot CLI runs and tests; long-lived services
// construct their own via NewSpace.
func DefaultSpace() *Space {
	defaultSpaceOnce.Do(func() { defaultSpace = NewSpace(path.DefaultSpace()) })
	return defaultSpace
}

// InternedHandles reports how many distinct handle names the Space's
// current epoch has interned.
func (sp *Space) InternedHandles() int {
	sp.mu.RLock()
	n := len(sp.names)
	sp.mu.RUnlock()
	return n
}

// idOf interns h and returns its stable ID within the Space.
func (sp *Space) idOf(h Handle) uint32 {
	sp.mu.RLock()
	id, ok := sp.ids[h]
	sp.mu.RUnlock()
	if ok {
		return id
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if id, ok := sp.ids[h]; ok {
		return id
	}
	id = sp.base + uint32(len(sp.names))
	if id < sp.base {
		// Monotonic-ID exhaustion: a wrap would let a stale matrix's packed
		// keys collide with fresh handles, so fail fast (cf. path.intern).
		panic("matrix: interned handle IDs exhausted; restart the process")
	}
	sp.ids[h] = id
	sp.names = append(sp.names, h)
	return id
}

// nameOf returns the handle with the given interned ID (current epoch).
func (sp *Space) nameOf(id uint32) Handle {
	sp.mu.RLock()
	h := sp.names[id-sp.base]
	sp.mu.RUnlock()
	return h
}

// entryKey packs an interned (row, col) handle pair into one map key.
type entryKey uint64

// ek resolves both IDs under a single read-lock acquisition — it sits on
// the hottest path of the concurrent fixpoint (every Get/Put), where two
// separate idOf calls would double the traffic on the shared lock word.
func (sp *Space) ek(row, col Handle) entryKey {
	sp.mu.RLock()
	r, okR := sp.ids[row]
	c, okC := sp.ids[col]
	sp.mu.RUnlock()
	if !okR {
		r = sp.idOf(row)
	}
	if !okC {
		c = sp.idOf(col)
	}
	return entryKey(uint64(r)<<32 | uint64(c))
}

// keyHandles resolves a packed key back to its handle names.
func (sp *Space) keyHandles(k entryKey) (row, col Handle) {
	return sp.nameOf(uint32(k >> 32)), sp.nameOf(uint32(k))
}

func (k entryKey) diagonal() bool { return uint32(k>>32) == uint32(k) }
