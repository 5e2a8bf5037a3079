package service

import (
	"net/http"
	"sync/atomic"
)

// DrainGate wraps the service handler for graceful shutdown. Once Drain
// is called, every route but the observability ones is refused with 503,
// the draining error code, and a Retry-After hint — the request belongs
// on another replica — while /v1/healthz, /v1/stats, and /v1/metrics
// stay up so the orchestrator and scrapers can watch the drain finish.
// In-flight analyses are untouched: refusal only keeps NEW work out of the
// session pools during the grace window; http.Server.Shutdown then waits
// for the active connections.
type DrainGate struct {
	inner    http.Handler
	draining atomic.Bool
	refused  atomic.Uint64
}

// NewDrainGate wraps h. The gate starts open (not draining).
func NewDrainGate(h http.Handler) *DrainGate {
	return &DrainGate{inner: h}
}

// Drain flips the gate: every subsequent analyze request is refused.
// Idempotent and safe from any goroutine (the signal handler's).
func (g *DrainGate) Drain() {
	g.draining.Store(true)
}

// Draining reports whether Drain has been called.
func (g *DrainGate) Draining() bool {
	return g.draining.Load()
}

// Refused returns how many analyze requests the closed gate turned away.
func (g *DrainGate) Refused() uint64 {
	return g.refused.Load()
}

// drainExempt reports whether a path stays served while draining: the
// read-only observability routes.
func drainExempt(path string) bool {
	switch path {
	case "/v1/healthz", "/v1/stats", "/v1/metrics":
		return true
	}
	return false
}

func (g *DrainGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() && !drainExempt(r.URL.Path) {
		g.refused.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			errorBody{Code: CodeDraining, Message: "server is draining; retry against another replica"})
		return
	}
	g.inner.ServeHTTP(w, r)
}
