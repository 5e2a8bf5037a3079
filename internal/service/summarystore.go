package service

import (
	"container/list"
	"sync"

	"repro/internal/analysis"
)

// The summary store is the procedure-granular caching axis behind
// incremental analysis. Where the result cache keys whole programs (one
// edited procedure misses everything), the summary store keys individual
// procedures by SummaryKey(cohort fingerprint, options): a record stays
// valid as long as the procedure's body and every reachable callee are
// unchanged. On a result-cache miss the service probes the store for
// every procedure of the program and seeds the engine with the hits;
// after a successful analysis the converged summaries of the misses are
// stored back. Records are Space-free (analysis.ProcSeed), shared by
// pointer, and treated as immutable by everyone.

// SummaryStoreStats is the /stats block for the summary store.
type SummaryStoreStats struct {
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Invalidations counts records dropped because their procedure body
	// was re-stored under a different cohort key — the dependency-driven
	// (edit) invalidation channel, as opposed to capacity evictions.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
}

// summaryStore is the bounded per-procedure summary cache: an LRU with a
// body→key index for edit invalidation. Safe for concurrent use.
type summaryStore struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recent; values are *storeEntry
	byKey    map[Fp]*list.Element
	// byBody maps a procedure body fingerprint to the LAST summary key
	// stored for it. A put whose body maps to a different key means the
	// procedure's reachable callees changed: the stale record can never
	// be requested again by the evolving program, so it is dropped and
	// counted as an invalidation. (Distinct programs sharing a body keep
	// each other's records alive only while both keys stay warm in LRU.)
	byBody map[Fp]Fp

	bytes                                  int64
	hits, misses, invalidations, evictions uint64
}

type storeEntry struct {
	key    Fp
	bodyFp Fp
	seed   *analysis.ProcSeed
	size   int
}

// newSummaryStore builds a store bounded to capacity records (entries,
// not bytes; byte totals are reported for sizing).
func newSummaryStore(capacity int) *summaryStore {
	return &summaryStore{
		capacity: capacity,
		lru:      list.New(),
		byKey:    map[Fp]*list.Element{},
		byBody:   map[Fp]Fp{},
	}
}

// get returns the record for a summary key, or false.
func (st *summaryStore) get(key Fp) (*analysis.ProcSeed, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byKey[key]
	if !ok {
		st.misses++
		return nil, false
	}
	st.hits++
	st.lru.MoveToFront(el)
	return el.Value.(*storeEntry).seed, true
}

// put stores a record. bodyFp is the procedure's body fingerprint: the
// store tracks body→key so a re-put of the same body under a new key (the
// body's callee cohort changed) invalidates the stale record.
func (st *summaryStore) put(key Fp, bodyFp Fp, seed *analysis.ProcSeed) {
	size := seed.SizeBytes() // outside the lock: walks the whole record
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byKey[key]; ok {
		// Same key: deterministic exports make the records deep-equal;
		// keep the incumbent, refresh recency.
		st.lru.MoveToFront(el)
		st.byBody[bodyFp] = key
		return
	}
	if old, ok := st.byBody[bodyFp]; ok && old != key {
		if el, ok := st.byKey[old]; ok {
			st.removeLocked(el)
			st.invalidations++
		}
	}
	e := &storeEntry{key: key, bodyFp: bodyFp, seed: seed, size: size}
	st.byKey[key] = st.lru.PushFront(e)
	st.byBody[bodyFp] = key
	st.bytes += int64(e.size)
	for st.lru.Len() > st.capacity {
		oldest := st.lru.Back()
		st.removeLocked(oldest)
		st.evictions++
	}
}

func (st *summaryStore) removeLocked(el *list.Element) {
	e := el.Value.(*storeEntry)
	st.lru.Remove(el)
	delete(st.byKey, e.key)
	if st.byBody[e.bodyFp] == e.key {
		delete(st.byBody, e.bodyFp)
	}
	st.bytes -= int64(e.size)
}

// stats snapshots the counters.
func (st *summaryStore) stats() SummaryStoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return SummaryStoreStats{
		Entries:       st.lru.Len(),
		Bytes:         st.bytes,
		Capacity:      st.capacity,
		Hits:          st.hits,
		Misses:        st.misses,
		Invalidations: st.invalidations,
		Evictions:     st.evictions,
	}
}
