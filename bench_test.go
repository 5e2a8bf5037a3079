// Top-level benchmark harness: one benchmark per figure/experiment of the
// paper (see DESIGN.md §3 for the index). Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics report the reproduction numbers themselves (speedups,
// parallel-statement counts), so `go test -bench` regenerates the
// quantitative side of EXPERIMENTS.md.
package repro

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/interfere"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/runtime"
	"repro/internal/sil/ast"
	"repro/internal/sil/parser"
	"repro/internal/sil/printer"
	"repro/internal/sil/types"
)

func mustPipeline(b *testing.B, src string, roots ...string) *core.Pipeline {
	b.Helper()
	opts := core.DefaultOptions()
	opts.Analysis.ExternalRoots = roots
	pipe, err := core.Build(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return pipe
}

// BenchmarkFig1Parse — E-F1: front-end throughput on the Figure 7 program.
func BenchmarkFig1Parse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(progs.AddAndReverse)
		if err != nil {
			b.Fatal(err)
		}
		if err := types.Check(prog); err != nil {
			b.Fatal(err)
		}
		types.Normalize(prog)
	}
}

// BenchmarkFig1Print — E-F1: printer round-trip half.
func BenchmarkFig1Print(b *testing.B) {
	prog, _ := parser.Parse(progs.AddAndReverse)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = printer.Print(prog)
	}
}

// BenchmarkFig2Assignments — E-F2: the handle-assignment transfer
// functions on the Figure 2 matrix.
func BenchmarkFig2Assignments(b *testing.B) {
	pipe := mustPipeline(b, `
program figctx
procedure main()
  a, b, c, d, e: handle
begin
  a := new()
end;
`)
	m := matrix.New()
	nn := matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg}
	for _, h := range []matrix.Handle{"a", "b", "c"} {
		m.Add(h, nn)
	}
	m.Put("a", "b", path.MustParseSet("L4+"))
	m.Put("a", "c", path.MustParseSet("R1D+"))
	stmts, err := parser.ParseStmts("d := a.right; e := d.left")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out := pipe.Info.Replay("main", m, stmts)
		if out.Get("e", "c").IsEmpty() {
			b.Fatal("figure 2 result lost")
		}
	}
}

// BenchmarkFig3Fixpoint — E-F3: the while-loop iterative approximation.
func BenchmarkFig3Fixpoint(b *testing.B) {
	src := `
program fig3
procedure main()
  h, l: handle
begin
  h := new();
  l := h;
  while l.left <> nil do
    l := l.left
end;
`
	prog, err := progs.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(context.Background(), prog, analysis.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Fusion — E-F4: incremental n-statement interference, width
// sweep.
func BenchmarkFig4Fusion(b *testing.B) {
	m := matrix.New()
	nn := matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg}
	var group []ast.Stmt
	src := ""
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		m.Add(matrix.Handle(name), nn)
		src += name + ".value := 1; "
	}
	group, err := parser.ParseStmts(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !interfere.NoInterferenceN(group, m) {
			b.Fatal("independent updates must fuse")
		}
	}
}

// BenchmarkFig5RWSets — E-F5: read/write set construction for every basic
// statement kind.
func BenchmarkFig5RWSets(b *testing.B) {
	m := matrix.New()
	nn := matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg}
	for _, h := range []matrix.Handle{"a", "b"} {
		m.Add(h, nn)
	}
	m.Put("a", "b", path.MustParseSet("S?"))
	stmts, err := parser.ParseStmts(
		"a := nil; a := new(); a := b; a := b.left; a.left := b; x := a.value; a.value := x")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range stmts {
			if _, _, ok := interfere.ReadWrite(s, m); !ok {
				b.Fatal("basic statement rejected")
			}
		}
	}
}

// BenchmarkFig6Interference — E-F6: the three interference examples.
func BenchmarkFig6Interference(b *testing.B) {
	m := matrix.New()
	nn := matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg}
	for _, h := range []matrix.Handle{"a", "b", "c", "d"} {
		m.Add(h, nn)
	}
	m.Put("a", "b", path.MustParseSet("S"))
	m.Put("b", "a", path.MustParseSet("S"))
	m.Put("c", "d", path.MustParseSet("S?, R+?"))
	m.Put("d", "c", path.MustParseSet("S?"))
	pairs, err := parser.ParseStmts(
		"x := a.left; y := x; b.left := nil; n := d.value; c.value := 0")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s, _ := interfere.Interference(pairs[0], pairs[1], m); len(s) == 0 {
			b.Fatal("example 1 must interfere")
		}
		if s, _ := interfere.Interference(pairs[0], pairs[2], m); len(s) == 0 {
			b.Fatal("example 2 must interfere")
		}
		if s, _ := interfere.Interference(pairs[3], pairs[4], m); len(s) == 0 {
			b.Fatal("example 3 must interfere")
		}
	}
}

// BenchmarkFig7Analysis — E-F7: the full interprocedural analysis of
// add_and_reverse (matrices pA, pB, mod-ref, verification).
func BenchmarkFig7Analysis(b *testing.B) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := analysis.Analyze(context.Background(), prog, analysis.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if info.Summaries["add_n"] == nil {
			b.Fatal("missing summary")
		}
	}
}

// BenchmarkFig8Parallelize — E-F8: analysis + parallelization end to end.
func BenchmarkFig8Parallelize(b *testing.B) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		b.Fatal(err)
	}
	info, err := analysis.Analyze(context.Background(), prog, analysis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats par.Stats
	for i := 0; i < b.N; i++ {
		res := par.Parallelize(info, par.DefaultOptions)
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.ParStatements), "parstmts")
}

// BenchmarkFig9Sequences — E-F9/E-F10: the relative-location sequence
// interference check.
func BenchmarkFig9Sequences(b *testing.B) {
	pipe := mustPipeline(b, progs.AddAndReverse)
	var calls []*ast.CallStmt
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ast.CallStmt:
			if s.Name == "add_n" {
				calls = append(calls, s)
			}
		}
	}
	walk(pipe.Prog.Proc("main").Body)
	p0 := pipe.Info.Before[calls[0]]
	U := []ast.Stmt{calls[0]}
	V := []ast.Stmt{calls[1]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conf, err := interfere.SequencesInterfere(pipe.Info, "main", p0, U, V, true)
		if err != nil || conf {
			b.Fatal("add_n sequence pair must be independent")
		}
	}
}

// benchSpeedup measures a corpus kernel on the simulated machine and
// reports the P=8 speedup as a metric.
func benchSpeedup(b *testing.B, src string, setup runtime.Setup, roots ...string) {
	pipe := mustPipeline(b, src, roots...)
	b.ResetTimer()
	var sp *runtime.Speedup
	for i := 0; i < b.N; i++ {
		var err error
		sp, err = pipe.Speedup(interp.Config{}, setup, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sp.SpeedupAt(1), "speedup@8")
	b.ReportMetric(float64(sp.Work)/float64(sp.Span), "parallelism")
}

// BenchmarkSpeedupAddN — E-SP1 (treeadd, depth 10).
func BenchmarkSpeedupAddN(b *testing.B) {
	benchSpeedup(b, progs.TreeAdd, progs.BalancedTreeSetup(10), "root")
}

// BenchmarkSpeedupReverse — E-SP1 (treereverse, depth 10).
func BenchmarkSpeedupReverse(b *testing.B) {
	benchSpeedup(b, progs.TreeReverse, progs.BalancedTreeSetup(10), "root")
}

// BenchmarkSpeedupTreeSum — E-SP1 (read-only double traversal, depth 10).
func BenchmarkSpeedupTreeSum(b *testing.B) {
	benchSpeedup(b, progs.TreeSum, progs.BalancedTreeSetup(10), "root")
}

// BenchmarkSpeedupListNegativeControl — E-SP1 (no parallelism in a chain).
func BenchmarkSpeedupListNegativeControl(b *testing.B) {
	benchSpeedup(b, progs.ListIncrement, progs.ListSetup(512), "cur")
}

// BenchmarkBitonicSpeedup — E-S6: the §6 case study.
func BenchmarkBitonicSpeedup(b *testing.B) {
	benchSpeedup(b, progs.BitonicMerge, progs.BitonicTreeSetup(10), "root")
}

// BenchmarkAblationReadOnly — E-AB1: parallel statements found with and
// without the §5.2 refinement.
func BenchmarkAblationReadOnly(b *testing.B) {
	prog, err := progs.Compile(progs.TreeSum)
	if err != nil {
		b.Fatal(err)
	}
	info, err := analysis.Analyze(context.Background(), prog, analysis.Options{ExternalRoots: []string{"root"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-readonly", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = par.Parallelize(info, par.DefaultOptions).Stats.ParStatements
		}
		b.ReportMetric(float64(n), "parstmts")
	})
	b.Run("without-readonly", func(b *testing.B) {
		opts := par.Options{FuseBasic: true, FuseCalls: true, FuseSequences: true}
		var n int
		for i := 0; i < b.N; i++ {
			n = par.Parallelize(info, opts).Stats.ParStatements
		}
		b.ReportMetric(float64(n), "parstmts")
	})
}

// BenchmarkAblationWidening — E-AB2: analysis cost and result across
// widening limits.
func BenchmarkAblationWidening(b *testing.B) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		b.Fatal(err)
	}
	for _, lim := range []path.Limits{
		{MaxExact: 1, MaxSegs: 1, MaxPaths: 1},
		{MaxExact: 4, MaxSegs: 4, MaxPaths: 4},
		path.DefaultLimits,
	} {
		lim := lim
		name := "paths=" + string(rune('0'+lim.MaxPaths))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.Analyze(context.Background(), prog, analysis.Options{Limits: lim}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachineSchedule — scheduling cost of the simulated machine on a
// large fork-join trace.
func BenchmarkMachineSchedule(b *testing.B) {
	pipe := mustPipeline(b, progs.TreeAdd, "root")
	res, err := pipe.RunParallel(interp.Config{RecordTrace: true}, progs.BalancedTreeSetup(12))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runtime.Makespan(res.Trace, runtime.MachineConfig{Procs: 8}) == 0 {
			b.Fatal("empty makespan")
		}
	}
}

// BenchmarkInterpreter — raw sequential interpretation throughput.
func BenchmarkInterpreter(b *testing.B) {
	prog, err := progs.Compile(progs.TreeAdd)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, interp.Config{}, progs.BalancedTreeSetup(10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd — the full pipeline: parse through parallelize.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(progs.AddAndReverse, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusAnalysis — the analyze+parallelize hot path over every
// corpus program: the benchmark cmd/silbench snapshots into
// BENCH_analysis.json, and the primary target of the interning /
// memoization / concurrent-fixpoint work.
func BenchmarkCorpusAnalysis(b *testing.B) {
	for _, e := range progs.Catalog {
		e := e
		prog, err := progs.Compile(e.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				info, err := analysis.Analyze(context.Background(), prog, analysis.Options{ExternalRoots: e.Roots})
				if err != nil {
					b.Fatal(err)
				}
				par.Parallelize(info, par.DefaultOptions)
			}
		})
	}
}

// BenchmarkAnalysisWorkers — scaling of the concurrent interprocedural
// fixpoint across worker-pool sizes on the Figure 7 program.
func BenchmarkAnalysisWorkers(b *testing.B) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analysis.Analyze(context.Background(), prog, analysis.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
