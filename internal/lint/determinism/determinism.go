// Package determinism enforces the bit-identical-results invariant: the
// analysis core (internal/analysis, internal/path, internal/matrix, and the
// interference layer that renders its verdicts) must produce the same bytes
// for the same program regardless of worker count, session count, or
// process history. Two rule families:
//
//  1. Wall-clock and randomness are banned outright in the scoped packages
//     (time.Now/Since/Until, math/rand): any value derived from them would
//     leak schedule or process history into results.
//
//  2. Ranging over a map is unordered, so a map-range loop body must not
//     leak iteration order: appending to a slice declared outside the loop
//     (directly, or through a pointer-receiver method on a slice-typed
//     value — the RelSet.add shape), or printing, is flagged unless the
//     slice is sorted by a sort./slices. call later in the same function
//     (the repo's collect-then-sort idiom). Writes keyed by the loop
//     variable into maps, and commutative scalar accumulation (fingerprint
//     mixing), stay legal.
//
// Both families are interprocedural: a "wallclock" fact (reads the wall
// clock or randomness, directly or through any in-program callee) is
// computed bottom-up over the program call graph, and a parallel fixpoint
// marks functions whose returned slices are built in map-iteration order
// without a sanitizing sort. Scoped call sites into out-of-scope program
// code report against those summaries, so moving the clock read or the
// unsorted collect into a helper package no longer hides it. Calls whose
// results the caller itself sorts before use stay legal — the
// collect-then-sort idiom works across call boundaries too.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/internal/lint/lintkit"
)

// Scope lists the packages the bit-identical property covers. The
// equivalence suites pin exactly these: analysis results (analysis, path,
// matrix), the interference verdicts rendered from them, and the service
// layer (rendered bodies, fingerprints, and summary-store records must be
// byte-identical across sessions and warm/cold paths).
var Scope = []string{
	"repro/internal/analysis",
	"repro/internal/path",
	"repro/internal/matrix",
	"repro/internal/interfere",
	"repro/internal/service",
}

// bannedTimeFuncs are the wall-clock reads; time.Duration arithmetic and
// constants stay legal.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

var bannedImports = map[string]bool{"math/rand": true, "math/rand/v2": true}

// printFuncs are agent-visible output calls that must not run in map
// iteration order (the pure Sprint* family stays legal: its result is a
// value, and the rules below catch the value escaping unordered).
var printFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// WallclockFact marks functions that read the wall clock or randomness —
// directly, or through any in-program callee. An //sillint:allow
// determinism directive on the occurrence keeps it from seeding the fact.
var WallclockFact = &lintkit.FactDef{
	Analyzer: "determinism",
	Name:     "wallclock",
	Doc:      "function reads the wall clock or randomness, directly or through a callee",
	Local:    localWallclock,
}

func localWallclock(fp *lintkit.FuncPass) string {
	desc := ""
	ast.Inspect(fp.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // independent scope, like the call graph
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := usedPackage(fp.Pkg.Info, sel)
		banned := (pkg == "time" && bannedTimeFuncs[sel.Sel.Name]) || bannedImports[pkg]
		if banned && !fp.Allowed("determinism", sel.Pos()) {
			desc = pkg + "." + sel.Sel.Name
		}
		return true
	})
	return desc
}

// Analyzer is the determinism check.
var Analyzer = &lintkit.Analyzer{
	Name: "determinism",
	Doc: "in the bit-identical packages, forbid wall-clock/randomness and " +
		"map-iteration-order leaks (appends to escaping slices or printing " +
		"inside a map range without a later sort), directly or through any " +
		"transitive callee",
	Facts: []*lintkit.FactDef{WallclockFact},
	Run:   run,
}

func run(pass *lintkit.Pass) error {
	if !slices.Contains(Scope, pass.Pkg.Path()) {
		return nil
	}
	unordered := unorderedFuncs(pass.Prog)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		checkImports(pass, f)
		checkTimeCalls(pass, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn)
			checkTransitive(pass, fn, unordered)
		}
	}
	return nil
}

func checkImports(pass *lintkit.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := imp.Path.Value
		if bannedImports[path[1:len(path)-1]] {
			pass.Reportf(imp.Pos(),
				"import of %s in a bit-identical package: randomness would make results depend on process history",
				path)
		}
	}
}

func checkTimeCalls(pass *lintkit.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := usedPackage(pass.TypesInfo, sel); pkg == "time" && bannedTimeFuncs[sel.Sel.Name] {
			pass.Reportf(sel.Pos(),
				"time.%s in a bit-identical package: wall-clock reads leak schedule into results",
				sel.Sel.Name)
		}
		return true
	})
}

// checkTransitive reports scoped calls into out-of-scope program code that
// reaches the wall clock or returns a map-ordered slice. In-scope callees
// are skipped: their seeds are flagged directly in their own package.
func checkTransitive(pass *lintkit.Pass, fn *ast.FuncDecl, unordered map[*lintkit.ProgFunc]string) {
	// An assignment whose RHS is an unordered call sanitizes the call when
	// the target is sorted later in this function — collect-then-sort
	// across the call boundary. Inspect visits the AssignStmt before the
	// call itself, so the set is populated in time.
	sanitized := map[*ast.CallExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				obj := slicelikeTarget(pass.TypesInfo, n.Lhs[i])
				if obj != nil && sortedAfter(pass.TypesInfo, fn.Body, call.End(), obj) {
					sanitized[call] = true
				}
			}
		case *ast.CallExpr:
			callee := lintkit.CalleeOf(pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			pf, ok := pass.Prog.FuncOf(callee)
			if !ok || slices.Contains(Scope, pf.Pkg.Path) {
				return true
			}
			if pass.Prog.HasFact("determinism", "wallclock", callee) {
				pass.Reportf(n.Pos(),
					"call reaches a wall-clock or randomness read (%s): results would leak schedule or process history",
					pass.Prog.Why("determinism", "wallclock", callee))
			}
			if desc, bad := unordered[pf]; bad && !sanitized[n] {
				pass.Reportf(n.Pos(),
					"result is built in map iteration order (%s); sort it here or in the callee", desc)
			}
		}
		return true
	})
}

// unorderedFuncs computes, program-wide, the functions whose returned
// slices are built in map-iteration order without a sanitizing sort — a
// bottom-up fixpoint over return statements (monotone, so it terminates
// and is order-independent).
func unorderedFuncs(prog *lintkit.Program) map[*lintkit.ProgFunc]string {
	un := map[*lintkit.ProgFunc]string{}
	funcs := prog.Funcs()
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if f.Decl.Body == nil {
				continue
			}
			if _, done := un[f]; done {
				continue
			}
			if desc := returnsUnordered(prog, f, un); desc != "" {
				un[f] = desc
				changed = true
			}
		}
	}
	return un
}

// returnsUnordered reports whether f returns a slice appended to inside a
// map range (and never sorted), or forwards another unordered function's
// result unsorted.
func returnsUnordered(prog *lintkit.Program, f *lintkit.ProgFunc, un map[*lintkit.ProgFunc]string) string {
	info := f.Pkg.Info
	ordered := mapOrderedLocals(f)
	desc := ""
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			switch res := ast.Unparen(res).(type) {
			case *ast.Ident:
				if obj := info.ObjectOf(res); obj != nil {
					if d, bad := ordered[obj]; bad {
						desc = d
						return false
					}
				}
			case *ast.CallExpr:
				if callee := lintkit.CalleeOf(info, res); callee != nil {
					if pf, ok := prog.FuncOf(callee); ok {
						if d, bad := un[pf]; bad {
							desc = d + " via " + f.Fn.Name()
							return false
						}
					}
				}
			}
		}
		return true
	})
	return desc
}

// mapOrderedLocals finds f's locals appended to inside a map range and not
// sorted afterwards. An //sillint:allow determinism directive on the
// append keeps it from seeding.
func mapOrderedLocals(f *lintkit.ProgFunc) map[types.Object]string {
	info := f.Pkg.Info
	ordered := map[types.Object]string{}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(info, rs.X) {
			return true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range assign.Rhs {
				if !isAppendCall(info, rhs) || i >= len(assign.Lhs) {
					continue
				}
				obj := slicelikeTarget(info, assign.Lhs[i])
				if obj == nil || !declaredOutside(obj, rs) {
					continue
				}
				if f.Pkg.AllowedAt(f.Pkg.Fset.Position(rhs.Pos()), "determinism") {
					continue
				}
				if sortedAfter(info, f.Decl.Body, rs.End(), obj) {
					continue
				}
				ordered[obj] = "map-range append in " + f.Fn.Name()
			}
			return true
		})
		return true
	})
	return ordered
}

func checkMapRanges(pass *lintkit.Pass, fn *ast.FuncDecl) {
	reported := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(pass.TypesInfo, rs.X) {
			return true
		}
		checkMapRangeBody(pass, fn, rs, reported)
		return true
	})
}

func isMapType(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkMapRangeBody(pass *lintkit.Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, reported map[token.Pos]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isAppendCall(pass.TypesInfo, rhs) || i >= len(n.Lhs) {
					continue
				}
				if obj := slicelikeTarget(pass.TypesInfo, n.Lhs[i]); obj != nil && declaredOutside(obj, rs) {
					reportOrderLeak(pass, fn, rs, n.Pos(), obj, reported,
						"append to %q (declared outside this map range) leaks map iteration order", obj.Name())
				}
			}
		case *ast.CallExpr:
			checkCallInMapRange(pass, fn, rs, n, reported)
		}
		return true
	})
}

func checkCallInMapRange(pass *lintkit.Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, call *ast.CallExpr, reported map[token.Pos]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Printing under map iteration emits in map order.
	if pkg := usedPackage(pass.TypesInfo, sel); pkg == "fmt" && printFuncs[sel.Sel.Name] {
		if !reported[call.Pos()] {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(), "fmt.%s inside a map range emits in map iteration order", sel.Sel.Name)
		}
		return
	}
	// A pointer-receiver method on a slice-typed value declared outside the
	// loop is the RelSet.add shape: an append in map order, one call away.
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(recv)
	if obj == nil || !declaredOutside(obj, rs) {
		return
	}
	if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
		return
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, ptrRecv := sig.Recv().Type().(*types.Pointer); !ptrRecv {
		return
	}
	reportOrderLeak(pass, fn, rs, call.Pos(), obj, reported,
		"mutating slice %q through a pointer-receiver method inside a map range leaks iteration order", obj.Name())
}

func reportOrderLeak(pass *lintkit.Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, pos token.Pos, obj types.Object, reported map[token.Pos]bool, format, name string) {
	if reported[pos] || sortedAfter(pass.TypesInfo, fn.Body, rs.End(), obj) {
		return
	}
	reported[pos] = true
	pass.Reportf(pos, format+" (sort it after the loop, or iterate sorted keys)", name)
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	ident, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[ident].(*types.Builtin)
	return ok && b.Name() == "append"
}

// slicelikeTarget resolves `x` or `*x` assignment targets to their object.
func slicelikeTarget(info *types.Info, lhs ast.Expr) types.Object {
	if star, ok := lhs.(*ast.StarExpr); ok {
		lhs = star.X
	}
	ident, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(ident)
}

func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// usedPackage returns the import path of the package a selector's base
// identifier names, or "" when the base is not a package name.
func usedPackage(info *types.Info, sel *ast.SelectorExpr) string {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return ""
	}
	return pkgName.Imported().Path()
}

// sortedAfter reports whether a sort./slices. call after pos in body
// mentions obj — the repo's collect-then-sort idiom, which restores a
// canonical order before the slice can escape.
func sortedAfter(info *types.Info, body *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := usedPackage(info, sel); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok && info.ObjectOf(ident) == obj {
			found = true
		}
		return !found
	})
	return found
}
