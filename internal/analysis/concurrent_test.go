package analysis

// Tests for the concurrent worklist fixpoint: the analysis output —
// diagnostics, shapes, summaries, mod-ref bits — must be identical no
// matter how many workers drain the worklist, and whole Analyze runs must
// be safe to launch in parallel (shared intern/memo tables; run with
// -race).

import (
	"context"

	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/progs"
)

// fingerprint reduces an Info to a deterministic string covering every
// output the rest of the pipeline consumes, including every live context
// of every summary (Contexts() orders them by the canonical content
// rendering of their entries, which is schedule-independent).
func fingerprint(t *testing.T, info *Info) string {
	out := fmt.Sprintf("shape=%s exit=%s\n", info.Shape(), info.ExitShape())
	for _, d := range info.DiagStrings() {
		out += "diag " + d + "\n"
	}
	for _, name := range sortedSummaryNames(info) {
		s := info.Summaries[name]
		out += fmt.Sprintf("proc %s mod=%v upd=%v link=%v attach=%v\n",
			name, s.ModifiesLinks, s.UpdateParams, s.LinkParams, s.AttachesParams)
		for _, c := range s.Contexts() {
			tag := "ctx"
			if c.IsMerged() {
				tag = "merged-ctx"
			}
			out += tag + " entry " + c.Entry().Fingerprint().String() + "\n"
			if c.Exit() != nil {
				out += tag + " exit " + c.Exit().Fingerprint().String() + "\n"
			} else {
				out += tag + " exit bottom\n"
			}
		}
	}
	return out
}

func sortedSummaryNames(info *Info) []string {
	names := make([]string, 0, len(info.Summaries))
	for n := range info.Summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func analyzeWith(t *testing.T, src string, roots []string, workers int, merged bool) string {
	t.Helper()
	prog, err := progs.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := Options{Workers: workers, ExternalRoots: roots}
	if merged {
		opts = MergedOnly(opts)
	}
	info, err := Analyze(context.Background(), prog, opts)
	if err != nil {
		t.Fatalf("analyze (workers=%d): %v", workers, err)
	}
	return fingerprint(t, info)
}

// TestConcurrentFixpointEquivalence analyzes the whole corpus — plus a
// batch of random programs — with one worker and with many, in both
// summary modes (context-sensitive and merged), and requires bit-identical
// results.
func TestConcurrentFixpointEquivalence(t *testing.T) {
	type target struct {
		name, src string
		roots     []string
	}
	var targets []target
	for _, e := range progs.Catalog {
		targets = append(targets, target{e.Name, e.Source, e.Roots})
	}
	for seed := int64(1); seed <= 25; seed++ {
		targets = append(targets, target{
			fmt.Sprintf("random-%d", seed), progs.RandomProgram(seed), nil,
		})
	}
	modes := []struct {
		name   string
		merged bool
	}{
		{"ctx", false},   // call-site summaries
		{"merged", true}, // single merged summary per procedure
	}
	for _, mode := range modes {
		mode := mode
		for _, tgt := range targets {
			tgt := tgt
			t.Run(mode.name+"/"+tgt.name, func(t *testing.T) {
				ref := analyzeWith(t, tgt.src, tgt.roots, 1, mode.merged)
				for _, workers := range []int{2, 8} {
					if got := analyzeWith(t, tgt.src, tgt.roots, workers, mode.merged); got != ref {
						t.Errorf("workers=%d diverged from sequential:\n--- sequential\n%s--- workers=%d\n%s",
							workers, ref, workers, got)
					}
				}
			})
		}
	}
}

// TestParallelAnalyzeRuns launches independent Analyze runs concurrently:
// they share the process-wide path/handle intern tables and memo caches,
// so this is the cross-run race check.
func TestParallelAnalyzeRuns(t *testing.T) {
	const runs = 8
	var wg sync.WaitGroup
	results := make([]string, runs)
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := progs.Compile(progs.AddAndReverse)
			if err != nil {
				t.Errorf("compile: %v", err)
				return
			}
			info, err := Analyze(context.Background(), prog, Options{})
			if err != nil {
				t.Errorf("analyze: %v", err)
				return
			}
			results[i] = fingerprint(t, info)
		}()
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if results[i] != results[0] {
			t.Errorf("run %d diverged from run 0:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}
