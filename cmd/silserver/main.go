// Command silserver is the analysis-as-a-service daemon: an HTTP/JSON
// front end over internal/service, serving the Hendren–Nicolau analysis
// with pooled sessions (each owning a private path.Space), a
// fingerprint-keyed result cache, and batched parallel analysis.
//
// Usage:
//
//	silserver [-addr :8080] [-cache 256] [-summary-cap 4096] [-sessions 0]
//	          [-reset-paths 1048576] [-workers 0]
//	          [-timeout 60s] [-max-queue 256] [-budget-rounds 0]
//	          [-budget-paths 0] [-grace 30s]
//
// Endpoints:
//
//	POST /v1/analyze  {"source":"program p ...","roots":["root"]}
//	POST /v1/analyze  {"programs":[{"name":"a","source":"..."}, ...]}
//	GET  /v1/stats
//	GET  /v1/metrics  Prometheus text exposition
//	GET  /v1/healthz
//
// A cached response is byte-identical to the fresh one; the X-Sil-Cache
// header reports "hit" or "miss" per program. Failures use the v1 error
// envelope {"error":{"code":...,"message":...,"diagnostics":[...]}}:
// parse/type errors are 400 parse_error, admission sheds 429 overloaded
// (+ Retry-After), exceeded work budgets 503 budget_exceeded, expired
// deadlines 504 deadline_exceeded. Deadlines, budgets, and admission
// never change a successful response's bytes.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", 256, "result-cache capacity (entries; negative disables)")
	summaryCap := flag.Int("summary-cap", 0, "per-procedure summary-store capacity (records; 0 = default 4096, negative disables)")
	sessions := flag.Int("sessions", 0, "session pool size / worker budget (0 = default)")
	workers := flag.Int("workers", 0, "per-analysis worker pool size (0 = default; does not affect results)")
	resetPaths := flag.Int("reset-paths", 1<<20, "per-session interned-path budget before an epoch reset (negative disables)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline (0 disables); expired requests return 504")
	maxQueue := flag.Int("max-queue", 0, "admission-queue bound beyond the session pool: 0 = default 256, negative = no queue; excess requests are shed with 429")
	budgetRounds := flag.Int("budget-rounds", 0, "per-analysis fixpoint round budget (0 = unlimited); exceeding returns 503")
	grace := flag.Duration("grace", 30*time.Second, "graceful-drain window after SIGTERM/SIGINT before in-flight requests are abandoned")
	budgetPaths := flag.Int("budget-paths", 0, "per-analysis interned-path growth budget (0 = unlimited); exceeding returns 503")
	flag.Parse()

	svc := service.New(service.Options{
		Analysis: analysis.Options{
			Workers: *workers,
			Budgets: analysis.Budgets{MaxRounds: *budgetRounds, MaxInternedPaths: *budgetPaths},
		},
		CacheCapacity:      *cache,
		SummaryCapacity:    *summaryCap,
		Sessions:           *sessions,
		ResetInternedPaths: *resetPaths,
		MaxQueue:           *maxQueue,
		RequestTimeout:     *timeout,
	})
	gate := service.NewDrainGate(service.NewHandler(svc))
	srv := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("silserver listening on %s (cache=%d summary-cap=%d sessions=%d reset-paths=%d timeout=%s max-queue=%d budget-rounds=%d budget-paths=%d)",
		*addr, *cache, *summaryCap, *sessions, *resetPaths, *timeout, *maxQueue, *budgetRounds, *budgetPaths)

	// Graceful drain: on SIGTERM/SIGINT the gate starts refusing analyze
	// requests (503 + Retry-After; healthz/stats/metrics stay up), the
	// server finishes in-flight requests within the grace window, and the
	// final metric state is flushed to the log before exit.
	idle := make(chan struct{})
	go func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
		sig := <-sigs
		log.Printf("silserver: %s received, draining (grace %s)", sig, *grace)
		gate.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("silserver: shutdown: %v", err)
		}
		close(idle)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-idle
	log.Printf("silserver: drained (%d request(s) refused); final metrics:", gate.Refused())
	var final strings.Builder
	svc.WriteMetrics(&final)
	log.Print(final.String())
}
