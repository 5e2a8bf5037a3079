package analysis_test

// The warm-equals-cold property suite: seeding Analyze with the exported
// summaries of a converged run must return bit-identical results to a
// cold run — over the corpus and random programs, in context-sensitive
// and merged modes, at every worker count, and across Space boundaries
// (seeds carry no interned state). A fully seeded re-run of the same
// program must also cost zero fixpoint steps: that is the incremental
// payoff the service's summary store builds on.

import (
	"context"

	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/sil/ast"
)

func walkAll(s ast.Stmt, f func(ast.Stmt)) {
	if s == nil {
		return
	}
	f(s)
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			walkAll(st, f)
		}
	case *ast.Par:
		for _, st := range s.Branches {
			walkAll(st, f)
		}
	case *ast.If:
		walkAll(s.Then, f)
		walkAll(s.Else, f)
	case *ast.While:
		walkAll(s.Body, f)
	}
}

// dumpInfo renders every observable of an analysis deterministically:
// per-procedure summaries (contexts, exits, mod-ref), per-statement
// Before/After matrices in declaration order, and diagnostics. Two
// analyses of the same compiled program are bit-identical iff their
// dumps are equal.
func dumpInfo(in *analysis.Info) string {
	var b strings.Builder
	for _, d := range in.Prog.Decls {
		fmt.Fprintf(&b, "== proc %s ==\n", d.Name)
		s := in.Summaries[d.Name]
		if s == nil {
			b.WriteString("(no summary)\n")
		} else {
			fmt.Fprintf(&b, "modifiesLinks=%v update=%v link=%v attach=%v\n",
				s.ModifiesLinks, s.UpdateParams, s.LinkParams, s.AttachesParams)
			exact, hasMerged := s.ContextStats()
			fmt.Fprintf(&b, "contexts=%d merged=%v\n", exact, hasMerged)
			for i, c := range s.Contexts() {
				fmt.Fprintf(&b, "-- ctx %d merged=%v --\nentry:\n%s\n", i, c.IsMerged(), c.Entry())
				if c.Exit() != nil {
					fmt.Fprintf(&b, "exit:\n%s\n", c.Exit())
				} else {
					b.WriteString("exit: bottom\n")
				}
			}
		}
		idx := 0
		walkAll(d.Body, func(st ast.Stmt) {
			if m := in.Before[st]; m != nil {
				fmt.Fprintf(&b, "before %d:\n%s\n", idx, m)
			}
			if m := in.After[st]; m != nil {
				fmt.Fprintf(&b, "after %d:\n%s\n", idx, m)
			}
			idx++
		})
	}
	fmt.Fprintf(&b, "diags: %v\nshape=%v exit=%v\n", in.DiagStrings(), in.Shape(), in.ExitShape())
	return b.String()
}

func analyzeIn(t *testing.T, prog *ast.Program, roots []string, merged bool, workers int, sp *matrix.Space, seeds map[string]*analysis.ProcSeed) *analysis.Info {
	t.Helper()
	opts := analysis.Options{
		ExternalRoots: roots,
		Workers:       workers,
		Space:         sp,
		Seeds:         seeds,
	}
	if merged {
		opts = analysis.MergedOnly(opts)
	}
	info, err := analysis.Analyze(context.Background(), prog, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return info
}

func TestSeededWarmEqualsCold(t *testing.T) {
	type prg struct {
		name, src string
		roots     []string
	}
	var cases []prg
	for _, e := range progs.Catalog {
		cases = append(cases, prg{e.Name, e.Source, e.Roots})
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, prg{fmt.Sprintf("random%d", seed), progs.RandomProgram(seed), nil})
	}
	for _, merged := range []bool{false, true} {
		mode := "ctx"
		if merged {
			mode = "merged"
		}
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				prog := progs.MustCompile(tc.src)
				sp := matrix.NewSpace(path.NewSpace())
				cold := analyzeIn(t, prog, tc.roots, merged, 1, sp, nil)
				coldDump := dumpInfo(cold)
				seeds := analysis.ExportSeeds(cold)
				if len(seeds) == 0 {
					t.Fatal("no seeds exported")
				}
				for _, workers := range []int{1, 2, 8} {
					// A fresh Space each time: seeds must not depend on
					// the exporting run's interned state.
					wsp := matrix.NewSpace(path.NewSpace())
					warm := analyzeIn(t, prog, tc.roots, merged, workers, wsp, seeds)
					if warm.SeedsFellBack {
						t.Fatalf("workers=%d: seeds rejected on identical program", workers)
					}
					if warm.SeededProcs == 0 {
						t.Fatalf("workers=%d: nothing seeded", workers)
					}
					if warm.FixpointSteps != 0 {
						t.Errorf("workers=%d: fully seeded re-run cost %d fixpoint steps, want 0", workers, warm.FixpointSteps)
					}
					if d := dumpInfo(warm); d != coldDump {
						t.Fatalf("workers=%d: warm dump differs from cold\n--- warm ---\n%s\n--- cold ---\n%s", workers, d, coldDump)
					}
				}
			})
		}
	}
}

// TestSeededAcrossSpaceReset pins that seeds survive an epoch reset of
// the Space they are decoded into — the session-pool lifecycle.
func TestSeededAcrossSpaceReset(t *testing.T) {
	e := progs.Catalog[1] // treeadd
	prog := progs.MustCompile(e.Source)
	sp := matrix.NewSpace(path.NewSpace())
	cold := analyzeIn(t, prog, e.Roots, false, 2, sp, nil)
	coldDump := dumpInfo(cold)
	seeds := analysis.ExportSeeds(cold)
	sp.Paths().Reset()
	warm := analyzeIn(t, prog, e.Roots, false, 2, sp, seeds)
	if warm.SeedsFellBack || warm.FixpointSteps != 0 {
		t.Fatalf("after reset: fellBack=%v steps=%d", warm.SeedsFellBack, warm.FixpointSteps)
	}
	if d := dumpInfo(warm); d != coldDump {
		t.Fatalf("dump differs across Space reset:\n%s\nvs\n%s", d, coldDump)
	}
}

// TestPartialSeedsClosureFilter pins the all-or-nothing closure rule: a
// seed whose callee closure is not seeded is dropped, the dropped
// procedures analyze cold, and the result is still identical.
func TestPartialSeedsClosureFilter(t *testing.T) {
	e := progs.Catalog[1] // treeadd: main -> add_n
	prog := progs.MustCompile(e.Source)
	sp := matrix.NewSpace(path.NewSpace())
	cold := analyzeIn(t, prog, e.Roots, false, 1, sp, nil)
	coldDump := dumpInfo(cold)
	seeds := analysis.ExportSeeds(cold)

	var leaf string
	for name := range seeds {
		if name != "main" {
			leaf = name
		}
	}
	if leaf == "" {
		t.Fatal("expected a non-main seeded procedure")
	}
	// Dropping the leaf must drop main too (its closure includes leaf).
	partial := map[string]*analysis.ProcSeed{"main": seeds["main"]}
	warm := analyzeIn(t, prog, e.Roots, false, 1, matrix.NewSpace(path.NewSpace()), partial)
	if warm.SeededProcs != 0 {
		t.Fatalf("closure filter kept %d seeds, want 0", warm.SeededProcs)
	}
	if warm.FixpointSteps == 0 {
		t.Fatal("cold-due-to-filter run reported 0 steps")
	}
	if d := dumpInfo(warm); d != coldDump {
		t.Fatal("filtered warm run differs from cold")
	}

	// Seeding only the leaf keeps the leaf warm and re-analyzes main.
	partial = map[string]*analysis.ProcSeed{leaf: seeds[leaf]}
	warm = analyzeIn(t, prog, e.Roots, false, 1, matrix.NewSpace(path.NewSpace()), partial)
	if warm.SeededProcs != 1 {
		t.Fatalf("leaf-only seeding kept %d seeds, want 1", warm.SeededProcs)
	}
	if d := dumpInfo(warm); d != coldDump {
		t.Fatal("leaf-seeded warm run differs from cold")
	}
	full := analyzeIn(t, prog, e.Roots, false, 1, matrix.NewSpace(path.NewSpace()), seeds)
	if full.FixpointSteps >= cold.FixpointSteps {
		t.Fatalf("fully seeded steps %d not below cold %d", full.FixpointSteps, cold.FixpointSteps)
	}
	if warm.FixpointSteps >= cold.FixpointSteps {
		t.Fatalf("leaf-seeded steps %d not below cold %d", warm.FixpointSteps, cold.FixpointSteps)
	}
}

// TestSeedExportDeterminism pins that two exports of the same converged
// run are deep-equal — the summary store hashes and compares records.
func TestSeedExportDeterminism(t *testing.T) {
	e := progs.Catalog[10] // ctxpair: multi-context tables
	prog := progs.MustCompile(e.Source)
	dump := func() string {
		sp := matrix.NewSpace(path.NewSpace())
		info := analyzeIn(t, prog, e.Roots, false, 4, sp, nil)
		seeds := analysis.ExportSeeds(info)
		names := make([]string, 0, len(seeds))
		for n := range seeds {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			j, err := json.Marshal(seeds[n])
			if err != nil {
				t.Fatalf("marshal seed %s: %v", n, err)
			}
			fmt.Fprintf(&b, "%s: %s\n", n, j)
		}
		return b.String()
	}
	d1, d2 := dump(), dump()
	if d1 != d2 {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", d1, d2)
	}
}
