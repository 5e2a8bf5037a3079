package main

// Seeded input generation. Every workload input is a pure function of the
// -seed flag: the chain-scale programs, the serve-zipf variant population
// and request stream, and the edit-session edit chains. The program under
// test only ever sees the generated sources.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/progs"
	"repro/internal/service"
	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// program is one benchmark input: a SIL source plus the main locals the
// environment binds to external structures.
type program struct {
	name   string
	source string
	roots  []string
	// list marks a program whose external root is a list rather than a
	// tree (the interpreter setup of the equivalence check).
	list bool
	// depth is k for a chain-scale program, 0 otherwise.
	depth int
}

// corpusPrograms returns the progs.Catalog programs, rotated by the seed so
// the round-robin starts at a seeded position.
func corpusPrograms(seed int64) []program {
	n := len(progs.Catalog)
	off := int(uint64(seed) % uint64(n))
	out := make([]program, 0, n)
	for i := range n {
		e := progs.Catalog[(off+i)%n]
		out = append(out, program{name: e.Name, source: e.Source, roots: e.Roots, list: e.Name == "listinc"})
	}
	return out
}

// chainDepths is the fixed multiset of chain depths k. Only the order of
// the programs, their names and their literals come from the seed, so the
// analysis work of one pass is the same for every seed and the end-to-end
// metrics compare across seeds. Work grows about k². Five programs share
// k=7 so that the median op falls inside one depth's cluster, not in the
// gap between two depths, and the p90 op inside the k=11 cluster.
var chainDepths = [...]int{4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7, 8, 9, 10, 11, 12}

// chainSource renders one chain-scale program: main calls w<k> on the
// external root, w<i> walks both children with w<i-1>, every level where
// (i+phase)%3 == 0 swaps the children after the recursive calls, and an
// even/odd mutually recursive pair walks the same root. incs supplies the
// per-procedure value increments (k+2 literals).
func chainSource(name string, k, phase int, incs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\nprocedure main()\n  root: handle\nbegin\n  w%d(root);\n  even(root)\nend;\n", name, k)
	for i := k; i >= 1; i-- {
		fmt.Fprintf(&b, "procedure w%d(h: handle)\n  l, r: handle\nbegin\n  if h <> nil then\n  begin\n", i)
		fmt.Fprintf(&b, "    h.value := h.value + %d;\n    l := h.left;\n    r := h.right", incs[i-1])
		if i > 1 {
			fmt.Fprintf(&b, ";\n    w%d(l);\n    w%d(r)", i-1, i-1)
		}
		if (i+phase)%3 == 0 {
			b.WriteString(";\n    h.left := r;\n    h.right := l")
		}
		b.WriteString("\n  end\nend;\n")
	}
	for _, p := range [2][2]string{{"even", "odd"}, {"odd", "even"}} {
		inc := incs[k]
		if p[0] == "odd" {
			inc = incs[k+1]
		}
		fmt.Fprintf(&b, "procedure %s(h: handle)\n  l, r: handle\nbegin\n  if h <> nil then\n  begin\n", p[0])
		fmt.Fprintf(&b, "    h.value := h.value + %d;\n    l := h.left;\n    r := h.right;\n    %s(l);\n    %s(r)\n  end\nend;\n", inc, p[1], p[1])
	}
	return b.String()
}

// chainPrograms returns the 16 chain-scale programs for a seed, in their
// seeded pass order.
func chainPrograms(seed int64) []program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]program, len(chainDepths))
	for i, k := range chainDepths {
		incs := make([]int, k+2)
		for j := range incs {
			incs[j] = 1 + rng.Intn(9)
		}
		name := fmt.Sprintf("chain%d_%d", i, rng.Intn(1000))
		out[i] = program{name: name, source: chainSource(name, k, i%3, incs), roots: []string{"root"}, depth: k}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Serve-zipf population: every corpus program in variantsPerBase
// variants that differ from each other in one integer literal. The
// population (600) is larger than the service's 256-entry result cache.
const variantsPerBase = 50

// variantSource returns base with "zvariant := lit" prepended to main: a
// near-duplicate whose other procedures are unchanged, which is what lets
// the service's summary store seed them.
func variantSource(base string, lit int) (string, error) {
	prog, err := progs.Compile(base)
	if err != nil {
		return "", err
	}
	main := prog.Proc("main")
	if main == nil {
		return "", fmt.Errorf("no main procedure")
	}
	main.Locals = append(main.Locals, &ast.VarDecl{Name: "zvariant", Type: ast.IntT})
	set := &ast.Assign{Lhs: &ast.VarLV{Name: "zvariant"}, Rhs: &ast.IntLit{Val: int64(lit)}}
	main.Body.Stmts = append([]ast.Stmt{set}, main.Body.Stmts...)
	return printer.Print(prog), nil
}

// zipfPopulation returns the serve-zipf programs indexed by popularity
// rank: rank r is variant r/12 of corpus base perm[r%12], so every base
// has variants at every popularity level and the seed only decides which
// base leads each level.
func zipfPopulation(seed int64) ([]program, error) {
	rng := rand.New(rand.NewSource(seed))
	bases := progs.Catalog
	perm := rng.Perm(len(bases))
	litBase := 1 + rng.Intn(1000)
	out := make([]program, 0, len(bases)*variantsPerBase)
	for r := 0; r < len(bases)*variantsPerBase; r++ {
		e := bases[perm[r%len(bases)]]
		v := r / len(bases)
		src, err := variantSource(e.Source, litBase+v)
		if err != nil {
			return nil, fmt.Errorf("variant %d of %s: %w", v, e.Name, err)
		}
		out = append(out, program{name: e.Name, source: src, roots: e.Roots, list: e.Name == "listinc"})
	}
	return out, nil
}

// Edit-session edits. Each session starts from a base program and applies
// editsPerSession edits, each to the previous version. A run plays
// editSessionsPerRun sessions, cycling through the bases. Which edits a
// session makes (kinds, sites, revert targets) comes from editShapeSeed,
// the same for every seed, as chain-scale fixes its depths: the op
// latencies spread over two orders of magnitude, so a seeded edit shape
// moved the median op by 20% from one seed to the next. Even a seeded
// start in the session cycle moved it by up to 13%. The seed picks the
// value of every literal edit, so each seed's sources are its own.
const (
	editsPerSession    = 20
	editSessionsPerRun = 24
	editShapeSeed      = 1
)

var editKinds = [...]string{"literal", "add-call", "drop-call", "link-write", "revert"}

// callSite is a call statement in a block: a procedure call or an
// assignment from a function call.
type callSite struct {
	block *ast.Block
	index int
}

func isCall(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.CallStmt:
		return true
	case *ast.Assign:
		_, ok := s.Rhs.(*ast.CallExpr)
		return ok
	}
	return false
}

// walkStmts visits every statement of the program in source order.
func walkStmts(prog *ast.Program, f func(ast.Stmt)) {
	var stmt func(s ast.Stmt)
	stmt = func(s ast.Stmt) {
		f(s)
		switch s := s.(type) {
		case *ast.Block:
			for _, c := range s.Stmts {
				stmt(c)
			}
		case *ast.If:
			stmt(s.Then)
			if s.Else != nil {
				stmt(s.Else)
			}
		case *ast.While:
			stmt(s.Body)
		case *ast.Par:
			for _, c := range s.Branches {
				stmt(c)
			}
		}
	}
	for _, d := range prog.Decls {
		stmt(d.Body)
	}
}

// intLits returns every integer literal of the program in source order.
func intLits(prog *ast.Program) []*ast.IntLit {
	var out []*ast.IntLit
	var expr func(e ast.Expr)
	expr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.IntLit:
			out = append(out, e)
		case *ast.Binary:
			expr(e.X)
			expr(e.Y)
		case *ast.Unary:
			expr(e.X)
		case *ast.CallExpr:
			for _, a := range e.Args {
				expr(a)
			}
		}
	}
	walkStmts(prog, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Assign:
			expr(s.Rhs)
		case *ast.CallStmt:
			for _, a := range s.Args {
				expr(a)
			}
		case *ast.If:
			expr(s.Cond)
		case *ast.While:
			expr(s.Cond)
		}
	})
	return out
}

// callSites returns the call statements; droppable restricts them to
// blocks that keep at least one statement after the drop.
func callSites(prog *ast.Program, droppable bool) []callSite {
	var out []callSite
	walkStmts(prog, func(s ast.Stmt) {
		b, ok := s.(*ast.Block)
		if !ok || droppable && len(b.Stmts) < 2 {
			return
		}
		for i, s := range b.Stmts {
			if isCall(s) {
				out = append(out, callSite{b, i})
			}
		}
	})
	return out
}

// handleVars returns (procedure, variable) pairs for every handle-typed
// parameter or local.
func handleVars(prog *ast.Program) [][2]string {
	var out [][2]string
	for _, d := range prog.Decls {
		for _, vs := range [][]*ast.VarDecl{d.Params, d.Locals} {
			for _, v := range vs {
				if v.Type == ast.HandleT {
					out = append(out, [2]string{d.Name, v.Name})
				}
			}
		}
	}
	return out
}

// applyEdit applies one structural edit kind (every kind but revert) to
// src and returns the edited canonical source; ok is false when the kind
// has no site in src. shape picks the site, values the literal increment.
func applyEdit(src, kind string, shape, values *rand.Rand) (out string, ok bool, err error) {
	prog, err := progs.Compile(src)
	if err != nil {
		return "", false, err
	}
	switch kind {
	case "literal":
		lits := intLits(prog)
		if len(lits) == 0 {
			return "", false, nil
		}
		lits[shape.Intn(len(lits))].Val += int64(1 + values.Intn(9))
	case "add-call":
		sites := callSites(prog, false)
		if len(sites) == 0 {
			return "", false, nil
		}
		c := sites[shape.Intn(len(sites))]
		dup := c.block.Stmts[c.index]
		c.block.Stmts = append(c.block.Stmts[:c.index+1], append([]ast.Stmt{dup}, c.block.Stmts[c.index+1:]...)...)
	case "drop-call":
		sites := callSites(prog, true)
		if len(sites) == 0 {
			return "", false, nil
		}
		c := sites[shape.Intn(len(sites))]
		c.block.Stmts = append(c.block.Stmts[:c.index], c.block.Stmts[c.index+1:]...)
	case "link-write":
		vars := handleVars(prog)
		if len(vars) == 0 {
			return "", false, nil
		}
		v := vars[shape.Intn(len(vars))]
		d := prog.Proc(v[0])
		field := ast.Field(shape.Intn(2)) // left or right
		w := &ast.Assign{Lhs: &ast.FieldLV{Base: v[1], Field: field}, Rhs: &ast.NilLit{}}
		d.Body.Stmts = append(d.Body.Stmts, w)
	default:
		return "", false, fmt.Errorf("unknown edit kind %q", kind)
	}
	return printer.Print(prog), true, nil
}

// editable reports whether every structural edit kind has a site in src.
func editable(src string) bool {
	prog, err := progs.Compile(src)
	if err != nil {
		return false
	}
	return len(intLits(prog)) > 0 && len(callSites(prog, true)) > 0 && len(handleVars(prog)) > 0
}

// edit is one step of an edit session: its kind and the resulting source.
type edit struct {
	kind, source string
}

// editSession returns the editsPerSession steps of one session over base,
// each an edit of the version before it. A revert returns to an earlier
// version, which is the only way a session can repeat a source. shape
// draws the kinds, sites and revert targets, values the literal
// increments.
func editSession(base program, shape, values *rand.Rand) ([]edit, error) {
	start, err := progs.Compile(base.source)
	if err != nil {
		return nil, err
	}
	history := []string{printer.Print(start)}
	cur := 0
	out := make([]edit, 0, editsPerSession)
	for len(out) < editsPerSession {
		kind := editKinds[shape.Intn(len(editKinds))]
		if kind == "revert" {
			if len(history) < 2 {
				continue
			}
			prev := shape.Intn(len(history) - 1)
			if prev >= cur {
				prev++
			}
			cur = prev
			out = append(out, edit{kind, history[cur]})
			continue
		}
		next, ok, err := applyEdit(history[cur], kind, shape, values)
		if err != nil {
			return nil, fmt.Errorf("%s edit of %s: %w", kind, base.name, err)
		}
		if !ok {
			continue
		}
		history = append(history, next)
		cur = len(history) - 1
		out = append(out, edit{kind, next})
	}
	return out, nil
}

// editStream returns the requests of one edit-session run in play order:
// editSessionsPerRun sessions cycling through bases.
func editStream(bases []program, seed int64) ([]service.Request, error) {
	shape := rand.New(rand.NewSource(editShapeSeed))
	values := rand.New(rand.NewSource(seed))
	var out []service.Request
	for j := range editSessionsPerRun {
		base := bases[j%len(bases)]
		edits, err := editSession(base, shape, values)
		if err != nil {
			return nil, err
		}
		for _, e := range edits {
			out = append(out, service.Request{Name: base.name, Source: e.source, Roots: base.roots})
		}
	}
	return out, nil
}

// editExcluded are editable corpus programs left out of the edit
// sessions: on them, and on every chain program, the service's
// summary-seeded result differs from a cold analysis for a few edits
// (bench/README.md, "Findings"), so those ops could never pass the
// reference check.
var editExcluded = map[string]bool{"ctxpair": true, "mutualwalk": true}

// editBases returns the edit-session bases: the corpus programs on which
// every structural edit kind has a site, less editExcluded.
func editBases() []program {
	var out []program
	for _, e := range progs.Catalog {
		if editable(e.Source) && !editExcluded[e.Name] {
			out = append(out, program{name: e.Name, source: e.Source, roots: e.Roots})
		}
	}
	return out
}
