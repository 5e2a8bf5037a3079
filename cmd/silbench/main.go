// Command silbench runs the analysis pipeline over the internal/progs
// corpus and emits a machine-readable benchmark report, so every PR leaves
// a perf trajectory behind (CI uploads the file as an artifact).
//
// Usage:
//
//	silbench [-out BENCH_analysis.json] [-iters 25] [-samples 1] [-workers 0]
//	         [-min-ms 200] [-ctx 0] [-reset] [-baseline FILE] [-max-regress 0.15]
//
// For each corpus program it measures the full analyze+parallelize path
// (the hot path this repository optimizes) and reports ns/op alongside the
// analysis verdicts, plus the path.Space table statistics (sizes and memo
// hit rate). -ctx selects the summary mode: 0 runs the default
// context-sensitive table (cap analysis.DefaultMaxContexts), a positive
// value overrides the cap, and a negative value disables context
// sensitivity ("merged mode", the pre-context behavior); the report
// carries the mode plus per-program context-table statistics so the two
// modes leave separately gateable trajectories. With -reset it then resets the process Space — the long-lived
// service epoch boundary — and records the post-reset counters, proving
// the intern/memo memory is returned. With -baseline it compares the fresh
// numbers against a stored report and exits non-zero on regression: the CI
// gate fails a PR when total corpus ns/op regresses by more than
// -max-regress (default 15%), or any single program by twice that. With
// -samples N each program is measured N times and the per-program MEDIAN
// ns/op is reported — the CI gate runs 5 samples so one descheduled
// measurement on a shared runner cannot fail (or mask) a regression; the
// median is robust where the mean is not.
//
// With -edit-replay the tool measures the incremental-analysis path
// instead:
//
//	silbench -edit-replay [-samples 3] [-ctx 0] [-out BENCH_incremental.json]
//
// For each corpus program it synthesizes a single-procedure edit, replays
// it against a summary-store-backed service, and reports cold / seeded
// resubmit / warm-after-edit / cache-hit latencies plus the fixpoint step
// counts showing how much of the program an edit actually re-analyzes
// (see editreplay.go). Non-gating.
package main

import (
	"context"

	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
)

// result is the per-program benchmark record.
type result struct {
	Name          string  `json:"name"`
	Iters         int     `json:"iters"`
	NsPerOp       float64 `json:"ns_per_op"`
	Diags         int     `json:"diags"`
	Shape         string  `json:"shape"`
	ExitShape     string  `json:"exit_shape"`
	ParStatements int     `json:"par_statements"`
	// Context-table statistics (zero in merged mode): live exact contexts,
	// procedures that grew a merged fallback, and cap evictions.
	Contexts    int `json:"contexts"`
	MergedProcs int `json:"merged_procs"`
	Evictions   int `json:"evictions"`
	// Lazy-fallback statistics: procedures whose merged fallback found a
	// consumer and was analyzed, the fixpoint analyses those fallbacks
	// consumed, and live shared-exit aliases (read-only procedures bound
	// to a covering converged context instead of re-analyzed). Absent
	// (zero) in reports from binaries that predate them; the -baseline
	// gate only reads the timing fields, so old and new reports compare
	// freely in either direction.
	FallbacksActivated int `json:"fallbacks_activated,omitempty"`
	FallbackAnalyses   int `json:"fallback_analyses,omitempty"`
	ExitsShared        int `json:"exits_shared,omitempty"`
}

// spaceStats is the JSON rendering of path.SpaceStats plus the matrix
// handle table, the epoch-scoped cache hierarchy of the analysis.
type spaceStats struct {
	Epoch           uint64  `json:"epoch"`
	InternedPaths   int     `json:"interned_paths"`
	InternedHandles int     `json:"interned_handles"`
	MemoVerdicts    int     `json:"memo_verdicts"`
	ResidueEntries  int     `json:"residue_entries"`
	MemoHits        uint64  `json:"memo_hits"`
	MemoMisses      uint64  `json:"memo_misses"`
	MemoHitRate     float64 `json:"memo_hit_rate"`
}

func snapshotSpace() spaceStats {
	st := path.DefaultSpace().Stats()
	return spaceStats{
		Epoch:           st.Epoch,
		InternedPaths:   st.InternedPaths,
		InternedHandles: matrix.InternedHandles(),
		MemoVerdicts:    st.Verdicts(),
		ResidueEntries:  st.ResidueEntries,
		MemoHits:        st.MemoHits,
		MemoMisses:      st.MemoMisses,
		MemoHitRate:     st.HitRate(),
	}
}

// report is the whole BENCH_analysis.json document.
type report struct {
	Schema    string    `json:"schema"`
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Workers   int       `json:"workers"`
	// Mode is "context" (per-context summaries) or "merged" (single
	// summary per procedure); MaxContexts is the effective table cap;
	// Samples is how many measurement passes the per-program medians were
	// taken over (absent/zero in reports from binaries predating it).
	Mode         string   `json:"mode"`
	MaxContexts  int      `json:"max_contexts"`
	Samples      int      `json:"samples,omitempty"`
	Corpus       []result `json:"corpus"`
	TotalNsPerOp float64  `json:"total_ns_per_op"`
	// InternedPaths and MemoVerdicts stay at top level for older readers;
	// Space carries the full table statistics.
	InternedPaths   int         `json:"interned_paths"`
	MemoVerdicts    int         `json:"memo_verdicts"`
	Space           spaceStats  `json:"space"`
	SpaceAfterReset *spaceStats `json:"space_after_reset,omitempty"`
}

func main() {
	log.SetFlags(0)
	out := flag.String("out", "BENCH_analysis.json", "output file (- for stdout)")
	iters := flag.Int("iters", 25, "fixed iterations per program (0 = time-based)")
	samples := flag.Int("samples", 1, "measurement passes per program; the reported ns/op is the per-program median")
	minMS := flag.Int("min-ms", 200, "minimum measurement time per program when iters=0")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = default)")
	ctx := flag.Int("ctx", 0, "context-table cap: 0 = default, >0 = override, <0 = merged mode (context-insensitive)")
	reset := flag.Bool("reset", false, "reset the path.Space after measuring and record the post-reset counters")
	baseline := flag.String("baseline", "", "baseline BENCH_analysis.json to gate regressions against")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum allowed total ns/op regression vs -baseline (fraction)")
	editReplay := flag.Bool("edit-replay", false, "edit-replay mode: measure warm re-analysis of singly-edited corpus programs against the summary store")
	flag.Parse()

	if *editReplay {
		out := *out
		if out == "BENCH_analysis.json" {
			out = "BENCH_incremental.json"
		}
		if err := runEditReplay(editReplayConfig{
			Out: out, Samples: *samples, Workers: *workers, MaxContexts: *ctx,
		}); err != nil {
			log.Fatalf("edit-replay mode: %v", err)
		}
		return
	}

	modeOpts := analysis.Options{Workers: *workers, MaxContexts: *ctx}
	mode := "context"
	if !modeOpts.ContextSensitive() {
		mode = "merged"
	}
	rep := report{
		Schema:      "sil-bench/v3",
		Timestamp:   time.Now().UTC(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workers:     modeOpts.EffectiveWorkers(),
		Mode:        mode,
		MaxContexts: *ctx,
		Samples:     *samples,
	}
	for _, e := range progs.Catalog {
		r, err := benchOne(e, *iters, *samples, time.Duration(*minMS)*time.Millisecond, *workers, *ctx)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		rep.Corpus = append(rep.Corpus, r)
		rep.TotalNsPerOp += r.NsPerOp
		fmt.Fprintf(os.Stderr, "%-16s %12.0f ns/op  shape=%-6s diags=%d parstmts=%d ctxs=%d fbAct=%d fbAna=%d shared=%d\n",
			r.Name, r.NsPerOp, r.Shape, r.Diags, r.ParStatements, r.Contexts,
			r.FallbacksActivated, r.FallbackAnalyses, r.ExitsShared)
	}
	rep.Space = snapshotSpace()
	rep.InternedPaths = rep.Space.InternedPaths
	rep.MemoVerdicts = rep.Space.MemoVerdicts
	fmt.Fprintf(os.Stderr, "space: %d paths, %d handles, %d verdicts, hit rate %.3f\n",
		rep.Space.InternedPaths, rep.Space.InternedHandles, rep.Space.MemoVerdicts, rep.Space.MemoHitRate)
	if *reset {
		path.DefaultSpace().Reset()
		after := snapshotSpace()
		rep.SpaceAfterReset = &after
		fmt.Fprintf(os.Stderr, "after reset: %d paths, %d handles, %d verdicts (epoch %d)\n",
			after.InternedPaths, after.InternedHandles, after.MemoVerdicts, after.Epoch)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (total %.2f ms/op over %d programs)\n",
			*out, rep.TotalNsPerOp/1e6, len(rep.Corpus))
	}
	if *baseline != "" {
		if err := gateRegression(os.Stderr, rep, *baseline, *maxRegress); err != nil {
			log.Fatalf("benchmark regression gate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "regression gate passed (limit %.0f%%)\n", *maxRegress*100)
	}
}

// benchOne measures one corpus program end to end (compile once, then
// analyze+parallelize per iteration, which is the optimized hot path).
// With samples > 1 the whole measurement repeats and the reported ns/op is
// the median over the passes, which a single descheduled pass on a noisy
// runner cannot move.
func benchOne(e progs.Entry, iters, samples int, minTime time.Duration, workers, maxContexts int) (result, error) {
	prog, err := progs.Compile(e.Source)
	if err != nil {
		return result{}, err
	}
	opts := analysis.Options{ExternalRoots: e.Roots, Workers: workers, MaxContexts: maxContexts}
	run := func() (*analysis.Info, *par.Result, error) {
		info, err := analysis.Analyze(context.Background(), prog, opts)
		if err != nil {
			return nil, nil, err
		}
		return info, par.Parallelize(info, par.DefaultOptions), nil
	}
	// Warm up once (also populates the process-wide memo tables the way a
	// long-lived service would see them).
	info, parRes, err := run()
	if err != nil {
		return result{}, err
	}
	if samples < 1 {
		samples = 1
	}
	perSample := make([]float64, 0, samples)
	totalIters := 0
	for s := 0; s < samples; s++ {
		var elapsed time.Duration
		n := 0
		start := time.Now()
		for {
			if _, _, err := run(); err != nil {
				return result{}, err
			}
			n++
			elapsed = time.Since(start)
			if iters > 0 {
				if n >= iters {
					break
				}
			} else if elapsed >= minTime {
				break
			}
		}
		totalIters += n
		perSample = append(perSample, float64(elapsed.Nanoseconds())/float64(n))
	}
	ct := info.ContextTableStats()
	return result{
		Name:               e.Name,
		Iters:              totalIters,
		NsPerOp:            median(perSample),
		Diags:              len(info.Diags),
		Shape:              info.Shape().String(),
		ExitShape:          info.ExitShape().String(),
		ParStatements:      parRes.Stats.ParStatements,
		Contexts:           ct.Exact,
		MergedProcs:        ct.MergedProcs,
		Evictions:          ct.Evictions,
		FallbacksActivated: ct.FallbacksActivated,
		FallbackAnalyses:   ct.FallbackAnalyses,
		ExitsShared:        ct.ExitsShared,
	}, nil
}
