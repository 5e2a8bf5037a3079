// Command silexp regenerates every experiment of the reproduction: one
// section per figure of Hendren & Nicolau (1989) plus the quantitative
// speedup and ablation studies the paper only gestures at. Its output is
// the committed EXPERIMENTS.md (regenerate with
// `go run ./cmd/silexp > EXPERIMENTS.md`); main_test.go diffs the two.
package main

import (
	"fmt"
	"log"

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
)

func section(id, title string) {
	fmt.Printf("\n== %s — %s ==\n", id, title)
}

func main() {
	log.SetFlags(0)
	fig2()
	fig3()
	fig4()
	fig56()
	fig78()
	fig910()
	bitonic()
	speedups()
	ablations()
}

// dummyInfo provides an analyzed context whose main declares the handles
// the figure replays need.
func dummyInfo() *analysis.Info {
	pipe, err := core.Build(`
program figctx
procedure main()
  a, b, c, d, e, x, y: handle
begin
  a := new()
end;
`, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	return pipe.Info
}

func nonNil() matrix.Attr { return matrix.Attr{Nil: matrix.NonNil, Indeg: matrix.UnknownDeg} }

func stmts(src string) []ast.Stmt {
	out, err := parser.ParseStmts(src)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

// fig2 replays the handle-assignment example.
func fig2() {
	section("E-F2", "Figure 2: handle assignments")
	info := dummyInfo()
	m := matrix.New()
	for _, h := range []matrix.Handle{"a", "b", "c"} {
		m.Add(h, nonNil())
	}
	m.Put("a", "b", path.MustParseSet("L4+")) // the paper's L^1L+L^2, coalesced
	m.Put("a", "c", path.MustParseSet("R1D+"))
	fmt.Println("(a) initial matrix:")
	fmt.Println(m)
	_, m1 := info.Replay("main", m, stmts("d := a.right"))
	fmt.Println("\n(b) after d := a.right   [paper: a→d = R1, d→c = D+]:")
	fmt.Println(m1)
	_, m2 := info.Replay("main", m1, stmts("e := d.left"))
	fmt.Println("\n(c) after e := d.left    [paper: e→c = S?, D+?]:")
	fmt.Println(m2)
}

// fig3 shows the while-loop iteration's fixpoint.
func fig3() {
	section("E-F3", "Figure 3: iterative approximation for a while loop")
	pipe, err := core.Build(`
program fig3
procedure main()
  h, l: handle
begin
  h := new();
  l := h;
  while l.left <> nil do
    l := l.left
end;
`, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	var w *ast.While
	for _, s := range pipe.Prog.Proc("main").Body.Stmts {
		if ws, ok := s.(*ast.While); ok {
			w = ws
		}
	}
	fmt.Println("matrix after the loop (paper's p+ = L+, plus the p0 alternative S?):")
	fmt.Println(pipe.Info.After[w])
}

// fig4 demonstrates the n-statement fusion width.
func fig4() {
	section("E-F4", "Figure 4: transforming sequential statements to a parallel statement")
	info := dummyInfo()
	m := matrix.New()
	for _, h := range []matrix.Handle{"a", "b", "c", "d"} {
		m.Add(h, nonNil())
	}
	_ = info
	group := stmts("a.value := 1; b.value := 2; c.value := 3; d.value := 4")
	fmt.Printf("4 independent updates fuse: %v\n", interfere.NoInterferenceN(group, m))
	m2 := m.Copy()
	m2.Put("a", "b", path.MustParseSet("S?"))
	m2.Put("b", "a", path.MustParseSet("S?"))
	fmt.Printf("with a,b possibly aliased they do not: %v\n", !interfere.NoInterferenceN(group, m2))
}

// fig56 prints the read/write sets and interference sets of Figure 6.
func fig56() {
	section("E-F5/E-F6", "Figures 5–6: read/write sets and interference examples")
	m := matrix.New()
	for _, h := range []matrix.Handle{"a", "b", "c", "d"} {
		m.Add(h, nonNil())
	}
	m.Put("a", "b", path.MustParseSet("S"))
	m.Put("b", "a", path.MustParseSet("S"))
	m.Put("a", "d", path.MustParseSet("D+"))
	m.Put("b", "d", path.MustParseSet("D+"))
	m.Put("c", "d", path.MustParseSet("S?, R+?"))
	m.Put("d", "c", path.MustParseSet("S?"))
	show := func(label, s1, s2 string) {
		a, b := stmts(s1)[0], stmts(s2)[0]
		r1, w1, _ := interfere.ReadWrite(a, m)
		r2, w2, _ := interfere.ReadWrite(b, m)
		i, _ := interfere.Interference(a, b, m)
		fmt.Printf("%s\n  s1: %-22s R=%s W=%s\n  s2: %-22s R=%s W=%s\n  I(s1,s2)=%s\n",
			label, s1, r1, w1, s2, r2, w2, i)
	}
	show("Example 1 [paper: {(x,var)}]", "x := a.left", "y := x")
	show("Example 2 [paper: {(a,left),(b,left)}]", "x := a.left", "b.left := nil")
	show("Example 3 [paper: {(c,value),(d,value)}]", "n := d.value", "c.value := 0")
}

// fig78 runs the full pipeline on the paper's example program.
func fig78() {
	section("E-F7/E-F8", "Figures 7–8: add_and_reverse — matrices pA, pB and the parallel program")
	pipe, err := core.Build(progs.AddAndReverse, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	find := func(proc, callee string, n int) ast.Stmt {
		var out ast.Stmt
		count := 0
		var walk func(s ast.Stmt)
		walk = func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.Block:
				for _, st := range s.Stmts {
					walk(st)
				}
			case *ast.If:
				walk(s.Then)
				if s.Else != nil {
					walk(s.Else)
				}
			case *ast.While:
				walk(s.Body)
			case *ast.CallStmt:
				if s.Name == callee {
					if count == n {
						out = s
					}
					count++
				}
			}
		}
		walk(pipe.Prog.Proc(proc).Body)
		return out
	}
	fmt.Println("pA (before add_n(lside,1)) [paper: root→lside=L1, root→rside=R1, lside/rside unrelated]:")
	fmt.Println(pipe.MatrixBefore(find("main", "add_n", 0)))
	fmt.Println("\npB (before the recursive add_n(l,n)) [paper: h*,h** groups; l,r unrelated]:")
	fmt.Println(pipe.MatrixBefore(find("add_n", "add_n", 0)))
	fmt.Println("\nparallelized program [paper: Figure 8]:")
	fmt.Println(pipe.ParallelText())
	rep, err := pipe.Verify(interp.Config{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification: equivalent=%v races=%d\n", rep.Equivalent(), len(rep.Races))
}

// fig910 demonstrates the sequence analysis.
func fig910() {
	section("E-F9/E-F10", "Figures 9–10: statement-sequence interference")
	pipe, err := core.Build(progs.AddAndReverse, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	var firstCall ast.Stmt
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ast.CallStmt:
			if s.Name == "add_n" && firstCall == nil {
				firstCall = s
			}
		}
	}
	walk(pipe.Prog.Proc("main").Body)
	p0 := pipe.Info.Before[firstCall]
	U := stmts("lside.value := 1; lside.left := nil")
	V := stmts("rside.value := 2")
	conf, err := interfere.SequencesInterfere(pipe.Info, "main", p0, U, V, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("U touches lside's subtree, V touches rside's: interfere=%v (want false)\n", conf)
	V2 := stmts("rside := lside.left")
	conf2, err := interfere.SequencesInterfere(pipe.Info, "main", p0, U, V2, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V2 reads lside.left which U writes: interfere=%v (want true)\n", conf2)
}

// bitonic is the §6 case study.
func bitonic() {
	section("E-S6", "§6 case study: adaptive-bitonic-style tree merge")
	bopts := core.DefaultOptions()
	bopts.Analysis.ExternalRoots = []string{"root"}
	pipe, err := core.Build(progs.BitonicMerge, bopts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pipe.Report())
	rep, err := pipe.Verify(interp.Config{}, progs.BitonicTreeSetup(10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification at depth 10: equivalent=%v races=%d\n", rep.Equivalent(), len(rep.Races))
	sp, err := pipe.Speedup(interp.Config{}, progs.BitonicTreeSetup(12), []int{1, 2, 4, 8, 16, 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speedup at depth 12:\n%s", sp.String())
}

// speedups is E-SP1: the processor/depth sweeps.
func speedups() {
	section("E-SP1", "speedup sweeps on the simulated machine")
	cases := []struct {
		name  string
		src   string
		setup func(int) func(h *interpHeap, env map[string]interp.Value)
	}{}
	_ = cases
	run := func(name, src string, setup runtime.Setup, roots ...string) {
		opts := core.DefaultOptions()
		opts.Analysis.ExternalRoots = roots
		pipe, err := core.Build(src, opts)
		if err != nil {
			log.Fatal(err)
		}
		sp, err := pipe.Speedup(interp.Config{}, setup, []int{1, 2, 4, 8, 16, 64, 0})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n%s", name, sp.String())
	}
	for _, depth := range []int{8, 12, 16} {
		run(fmt.Sprintf("treeadd depth=%d", depth), progs.TreeAdd, progs.BalancedTreeSetup(depth), "root")
	}
	run("treereverse depth=12", progs.TreeReverse, progs.BalancedTreeSetup(12), "root")
	run("treesum depth=12 (read-only ×2)", progs.TreeSum, progs.BalancedTreeSetup(12), "root")
	run("listinc n=4096 (negative control)", progs.ListIncrement, progs.ListSetup(4096), "cur")
}

type interpHeap = struct{}

// ablations is E-AB1/E-AB2.
func ablations() {
	section("E-AB1", "ablation: §5.2 read-only refinement")
	for _, useRO := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.Analysis.ExternalRoots = []string{"root"}
		opts.Par = par.Options{FuseBasic: true, FuseCalls: true, FuseSequences: true, UseReadOnly: useRO}
		pipe, err := core.Build(progs.TreeSum, opts)
		if err != nil {
			log.Fatal(err)
		}
		sp, err := pipe.Speedup(interp.Config{}, progs.BalancedTreeSetup(10), []int{8, 0})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("readonly=%-5v parallel statements=%d  speedup(P=8)=%.2f  T∞=%d (available parallelism %.0f)\n",
			useRO, pipe.Par.Stats.ParStatements, sp.SpeedupAt(0), sp.Span,
			float64(sp.Work)/float64(sp.Span))
	}

	section("E-AB2", "ablation: widening bounds")
	// The workload walks the left spine in a loop (root→cur = {S?, L+?})
	// and then updates cur's value next to an update in the right subtree.
	// Direction-preserving widening keeps the two independent; harsh
	// limits collapse L+ to D+ and the fusion is lost.
	const widenSrc = `
program widen
procedure main()
  root, cur, r: handle
begin
  cur := root;
  while cur.left <> nil do
    cur := cur.left;
  r := root.right;
  cur.value := 1;
  if r <> nil then r.value := 2
end;
`
	for _, lim := range []path.Limits{
		{MaxExact: 1, MaxSegs: 1, MaxPaths: 1},
		{MaxExact: 4, MaxSegs: 4, MaxPaths: 4},
		path.DefaultLimits,
	} {
		opts := core.DefaultOptions()
		opts.Analysis.Limits = lim
		opts.Analysis.ExternalRoots = []string{"root"}
		pipe, err := core.Build(widenSrc, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("limits{exact=%d segs=%d paths=%d}: parallel statements=%d\n",
			lim.MaxExact, lim.MaxSegs, lim.MaxPaths, pipe.Par.Stats.ParStatements)
	}
}
