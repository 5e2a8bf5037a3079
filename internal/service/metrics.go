// Prometheus text exposition (format 0.0.4) for the serving layer,
// stdlib-only: fixed counter/gauge families over the Service's atomic
// counters plus per-phase latency histograms.
//
// Wall-clock timing lives HERE and only here: phase latencies feed
// /metrics and never a rendered result body, so the determinism contract
// (bodies are pure functions of canonical source + options) is untouched.
package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// metricsNow is the single sanctioned wall-clock read of the serving
// layer. Everything downstream of it ends up in monitoring output only.
func metricsNow() time.Time {
	return time.Now() //sillint:allow determinism phase latencies feed /metrics only, never result bytes
}

// Request phases instrumented with latency histograms.
const (
	phaseParse       = iota // parse + type-check + normalize (prepare)
	phaseFingerprint        // canonical print + program fingerprint
	phaseFixpoint           // analysis fixpoint + parallelize
	phaseRender             // result rendering + seed backfill
	nPhases
)

var phaseNames = [nPhases]string{"parse", "fingerprint", "fixpoint", "render"}

// phaseBuckets holds the histogram upper bounds in seconds: exponential
// from 100µs to ~10s, wide enough for a budgeted pathological fixpoint.
var phaseBuckets = [...]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}

// histogram is a fixed-bound latency histogram with atomic cells. Buckets
// store per-bin counts (not cumulative); the writer accumulates into the
// cumulative le-form the exposition format wants.
type histogram struct {
	buckets [len(phaseBuckets)]atomic.Uint64
	over    atomic.Uint64 // observations beyond the last bound (+Inf bin)
	count   atomic.Uint64
	sumNs   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	secs := d.Seconds()
	for i := range phaseBuckets {
		if secs <= phaseBuckets[i] {
			h.buckets[i].Add(1)
			return
		}
	}
	h.over.Add(1)
}

// histSnapshot is one histogram's consistent-enough copy (per-cell atomic
// reads; scrape-time skew of a few observations is normal for Prometheus).
type histSnapshot struct {
	buckets [len(phaseBuckets)]uint64
	over    uint64
	count   uint64
	sumSecs float64
}

func (h *histogram) snapshot() histSnapshot {
	var out histSnapshot
	for i := range h.buckets {
		out.buckets[i] = h.buckets[i].Load()
	}
	out.over = h.over.Load()
	out.count = h.count.Load()
	out.sumSecs = time.Duration(h.sumNs.Load()).Seconds()
	return out
}

// errorCodes is the fixed vocabulary, in emission order.
var errorCodes = [...]string{
	CodeInvalidRequest,
	CodeParseError,
	CodeBudgetExceeded,
	CodeDeadlineExceeded,
	CodeCanceled,
	CodeOverloaded,
	CodeDraining,
	CodeInternal,
}

// codeCounters counts failures per error code with one atomic cell per
// known code (unknown codes — which would indicate a bug — fold into
// internal).
type codeCounters struct {
	cells [len(errorCodes)]atomic.Uint64
}

func (c *codeCounters) inc(code string) {
	for i, name := range errorCodes {
		if name == code {
			c.cells[i].Add(1)
			return
		}
	}
	c.cells[len(errorCodes)-1].Add(1)
}

// snapshot returns the non-zero codes (the /stats rendering; JSON
// marshalling sorts keys, so output order is deterministic).
func (c *codeCounters) snapshot() map[string]uint64 {
	var out map[string]uint64
	for i, name := range errorCodes {
		if v := c.cells[i].Load(); v > 0 {
			if out == nil {
				out = map[string]uint64{}
			}
			out[name] = v
		}
	}
	return out
}

// metricsSnapshot is the Service's full metric state at scrape time.
type metricsSnapshot struct {
	stats  Stats
	codes  [len(errorCodes)]uint64
	phases [nPhases]histSnapshot
}

func (s *Service) metricsSnapshot() metricsSnapshot {
	snap := metricsSnapshot{stats: s.Stats()}
	for i := range s.errCodes.cells {
		snap.codes[i] = s.errCodes.cells[i].Load()
	}
	for i := range s.phases {
		snap.phases[i] = s.phases[i].snapshot()
	}
	return snap
}

// WriteMetrics writes this Service's metrics exposition.
func (s *Service) WriteMetrics(w io.Writer) {
	writePrometheus(w, s.metricsSnapshot())
}

// family is one metric family: name, type, help, and a scalar extractor
// (histogram families are emitted separately).
type family struct {
	name, kind, help string
	value            func(metricsSnapshot) float64
}

var scalarFamilies = []family{
	{"sil_requests_total", "counter", "Requests served (single programs; batch items count individually).",
		func(m metricsSnapshot) float64 { return float64(m.stats.Served) }},
	{"sil_analyses_total", "counter", "Fresh analyses that ran to a rendered result.",
		func(m metricsSnapshot) float64 { return float64(m.stats.Analyses) }},
	{"sil_request_failures_total", "counter", "Failed requests, all error codes (see sil_request_errors_total).",
		func(m metricsSnapshot) float64 { return float64(m.stats.Errors) }},
	{"sil_cache_hits_total", "counter", "Result-cache hits (byte-identical replay of a rendered result).",
		func(m metricsSnapshot) float64 { return float64(m.stats.CacheHits) }},
	{"sil_cache_misses_total", "counter", "Result-cache misses (coalesced-flight leaders included).",
		func(m metricsSnapshot) float64 { return float64(m.stats.CacheMisses) }},
	{"sil_cache_evictions_total", "counter", "Result-cache LRU evictions.",
		func(m metricsSnapshot) float64 { return float64(m.stats.CacheEvictions) }},
	{"sil_cache_entries", "gauge", "Result-cache current size (entries).",
		func(m metricsSnapshot) float64 { return float64(m.stats.CacheSize) }},
	{"sil_coalesced_total", "counter", "Misses served from another request's in-flight analysis.",
		func(m metricsSnapshot) float64 { return float64(m.stats.Coalesced) }},
	{"sil_admission_shed_total", "counter", "Requests shed by admission control (429: pool and queue full).",
		func(m metricsSnapshot) float64 { return float64(m.stats.Shed) }},
	{"sil_admission_expired_total", "counter", "Requests whose deadline ended while queued for a session.",
		func(m metricsSnapshot) float64 { return float64(m.stats.Expired) }},
	{"sil_sessions", "gauge", "Session-pool size (the concurrent-analysis budget).",
		func(m metricsSnapshot) float64 { return float64(m.stats.Sessions) }},
	{"sil_sessions_busy", "gauge", "Sessions currently checked out by running analyses.",
		func(m metricsSnapshot) float64 { return float64(m.stats.Busy) }},
	{"sil_queue_depth", "gauge", "Admitted requests currently waiting for a session.",
		func(m metricsSnapshot) float64 { return float64(m.stats.Queued) }},
	{"sil_queue_capacity", "gauge", "Admission-queue capacity (-max-queue after defaulting).",
		func(m metricsSnapshot) float64 { return float64(m.stats.QueueCapacity) }},
	{"sil_epoch_resets_total", "counter", "Per-session Space epoch resets.",
		func(m metricsSnapshot) float64 { return float64(m.stats.EpochResets) }},
	{"sil_interned_paths", "gauge", "Interned path expressions across the session Spaces.",
		func(m metricsSnapshot) float64 { return float64(m.stats.InternedPaths) }},
	{"sil_summary_hits_total", "counter", "Summary-store hits (seeded procedures on the incremental warm path).",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryStore.Hits) }},
	{"sil_summary_misses_total", "counter", "Summary-store misses.",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryStore.Misses) }},
	{"sil_summary_evictions_total", "counter", "Summary-store LRU evictions.",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryStore.Evictions) }},
	{"sil_summary_invalidations_total", "counter", "Summary-store records invalidated by body edits.",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryStore.Invalidations) }},
	{"sil_summary_entries", "gauge", "Summary-store current size (records).",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryStore.Entries) }},
	{"sil_summary_cold_reruns_total", "counter", "Seeded analyses whose seeds failed validation and re-ran cold.",
		func(m metricsSnapshot) float64 { return float64(m.stats.SummaryColdReruns) }},
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writePrometheus renders the exposition: HELP/TYPE once per family, then
// its series in a fixed order — fully deterministic for a given counter
// state.
func writePrometheus(w io.Writer, m metricsSnapshot) {
	for _, f := range scalarFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		fmt.Fprintf(w, "%s %s\n", f.name, fmtFloat(f.value(m)))
	}
	fmt.Fprintf(w, "# HELP sil_request_errors_total Failed requests by machine-readable error code.\n# TYPE sil_request_errors_total counter\n")
	for i, code := range errorCodes {
		fmt.Fprintf(w, "sil_request_errors_total{code=%q} %d\n", code, m.codes[i])
	}
	fmt.Fprintf(w, "# HELP sil_phase_seconds Request-phase latency (parse, fingerprint, fixpoint, render).\n# TYPE sil_phase_seconds histogram\n")
	for ph, name := range phaseNames {
		h := m.phases[ph]
		cum := uint64(0)
		for i, ub := range phaseBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(w, "sil_phase_seconds_bucket{phase=%q,le=%q} %d\n", name, fmtFloat(ub), cum)
		}
		fmt.Fprintf(w, "sil_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", name, cum+h.over)
		fmt.Fprintf(w, "sil_phase_seconds_sum{phase=%q} %s\n", name, fmtFloat(h.sumSecs))
		fmt.Fprintf(w, "sil_phase_seconds_count{phase=%q} %d\n", name, h.count)
	}
	// Session-load balance: one series per pooled session.
	fmt.Fprintf(w, "# HELP sil_session_served_total Checkouts per pooled session (worker-budget balance).\n# TYPE sil_session_served_total counter\n")
	for i, n := range m.stats.SessionLoads {
		fmt.Fprintf(w, "sil_session_served_total{session=%q} %d\n", strconv.Itoa(i), n)
	}
}

// sortedCodes returns the error-code vocabulary sorted (doc/test hook).
func sortedCodes() []string {
	out := append([]string(nil), errorCodes[:]...)
	sort.Strings(out)
	return out
}
