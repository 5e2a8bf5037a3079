// Package lockscope enforces the serving layer's lock discipline: a
// Session/Service method holds its sync locks only around its own
// state — never across a call that leaves the package (HTTP render, user
// callbacks, the analysis pipeline) or blocks on the scheduler (channel
// operations, WaitGroup.Wait). The session is held for the whole request
// pipeline by DESIGN; the mutexes guarding the cache and stats must not
// be, or one slow render serializes the pool.
//
// The check is a linear source-order scan per function: a lock counts as
// held from its Lock()/RLock() call until the matching Unlock()/RUnlock()
// in the same function body; a deferred unlock keeps it held to the end.
// Branch-released locks (unlock inside an if arm) conservatively count as
// released for the statements after the branch, so the analyzer
// under-approximates and never false-positives on the
// check-unlock-early-return idiom.
//
// Callouts are interprocedural: a "callout" fact (does I/O, renders, runs
// the pipeline, or blocks — directly or through any in-program callee) is
// computed bottom-up over the program call graph, so hiding the HTTP call
// behind a helper method, even in another package, no longer hides it from
// the held-lock scan.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/lintkit"
)

// Scope lists the packages whose lock discipline is enforced.
var Scope = []string{"repro/internal/service"}

// calloutPkgs are packages a method must not call into while holding a
// sync lock: they render, write to the network, or run the (expensive)
// analysis pipeline.
var calloutPkgs = map[string]string{
	"net/http":                 "HTTP I/O",
	"io":                       "stream I/O",
	"html/template":            "template render",
	"text/template":            "template render",
	"repro/internal/analysis":  "the analysis pipeline",
	"repro/internal/par":       "the parallelism analysis",
	"repro/internal/interfere": "the interference analysis",
}

// fmtWriters are the fmt functions that write to an io.Writer (the pure
// Sprint* family stays legal under a lock).
var fmtWriters = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// CalloutFact marks functions that call out or block — directly, or
// through any in-program callee. An //sillint:allow lockscope directive on
// the occurrence keeps it from seeding the fact.
var CalloutFact = &lintkit.FactDef{
	Analyzer: "lockscope",
	Name:     "callout",
	Doc:      "function does I/O, renders, runs the analysis pipeline, or blocks, directly or through a callee",
	Local:    localCallout,
}

func localCallout(fp *lintkit.FuncPass) string {
	desc := ""
	seed := func(pos token.Pos, what string) {
		if desc == "" && what != "" && !fp.Allowed("lockscope", pos) {
			desc = what
		}
	}
	ast.Inspect(fp.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // independent scope, like the call graph
		case *ast.GoStmt:
			return false // spawned work runs on another stack
		case *ast.SendStmt:
			seed(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				seed(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			seed(n.Pos(), "select")
		case *ast.CallExpr:
			seed(n.Pos(), calloutDesc(fp.Pkg.Info, n))
		}
		return true
	})
	return desc
}

// Analyzer is the lockscope check.
var Analyzer = &lintkit.Analyzer{
	Name: "lockscope",
	Doc: "service methods must not call out (HTTP render, callbacks, the " +
		"analysis pipeline) or block on channels while holding a sync lock, " +
		"directly or through any transitive callee",
	Facts: []*lintkit.FactDef{CalloutFact},
	Run:   run,
}

func run(pass *lintkit.Pass) error {
	if !slices.Contains(Scope, pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFuncBody(pass, fn.Body)
			}
		}
	}
	return nil
}

// event is one lock-relevant occurrence in source order.
type event struct {
	pos  token.Pos
	kind string // "lock", "rlock", "unlock", "runlock", "deferred-unlock", "callout", "block"
	key  string // lock expression rendering, e.g. "s.mu"
	desc string // what the callout/blocking op is
}

// checkFuncBody scans one function scope. Nested function literals are
// independent scopes (their locks/callouts are theirs).
func checkFuncBody(pass *lintkit.Pass, body *ast.BlockStmt) {
	// go-statement calls are recorded so the transitive check can skip
	// them: the spawned callee runs on its own stack, not under this
	// function's locks. (Direct callout syntax under a lock still flags —
	// even spawning mid-critical-section is scan-visible work.)
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goCalls[g.Call] = true
		}
		return true
	})
	var events []event
	collect(pass, body, goCalls, &events)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	held := map[string]bool{}
	for _, ev := range events {
		switch ev.kind {
		case "lock", "rlock":
			if held[ev.key] {
				pass.Reportf(ev.pos, "%s locked again while already held: self-deadlock", ev.key)
			}
			held[ev.key] = true
		case "unlock", "runlock":
			delete(held, ev.key)
		case "deferred-unlock":
			// Held until return; nothing to release during the scan.
		case "callout", "block":
			if len(held) == 0 {
				continue
			}
			keys := make([]string, 0, len(held))
			for k := range held {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pass.Reportf(ev.pos, "%s while holding %s: release the lock first (one slow call under it serializes every request)",
				ev.desc, strings.Join(keys, ", "))
		}
	}
}

// collect walks stmts in source order, recording lock events and
// flaggable operations. FuncLit bodies are recursed into as fresh scopes.
func collect(pass *lintkit.Pass, n ast.Node, goCalls map[*ast.CallExpr]bool, events *[]event) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncBody(pass, n.Body)
			return false
		case *ast.DeferStmt:
			if key, kind := lockCall(pass.TypesInfo, n.Call); kind == "unlock" || kind == "runlock" {
				*events = append(*events, event{pos: n.Pos(), kind: "deferred-" + "unlock", key: key})
				return false
			}
			collect(pass, n.Call, goCalls, events)
			return false
		case *ast.SendStmt:
			*events = append(*events, event{pos: n.Pos(), kind: "block", desc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				*events = append(*events, event{pos: n.Pos(), kind: "block", desc: "channel receive"})
			}
		case *ast.SelectStmt:
			*events = append(*events, event{pos: n.Pos(), kind: "block", desc: "select"})
		case *ast.CallExpr:
			if key, kind := lockCall(pass.TypesInfo, n); kind != "" {
				*events = append(*events, event{pos: n.Pos(), kind: kind, key: key})
				return true
			}
			if desc := calloutDesc(pass.TypesInfo, n); desc != "" {
				*events = append(*events, event{pos: n.Pos(), kind: "callout", desc: desc})
				return true
			}
			// The interprocedural case: a direct call to an in-program
			// function that calls out or blocks somewhere down its call
			// tree. `go f()` is exempt — the spawned work is not under
			// this function's locks.
			if goCalls[n] {
				return true
			}
			if callee := lintkit.CalleeOf(pass.TypesInfo, n); callee != nil {
				if _, inProg := pass.Prog.FuncOf(callee); inProg &&
					pass.Prog.HasFact("lockscope", "callout", callee) {
					*events = append(*events, event{pos: n.Pos(), kind: "callout",
						desc: "transitive callout (" + pass.Prog.Why("lockscope", "callout", callee) + ")"})
				}
			}
		}
		return true
	})
}

// lockCall classifies x.Lock/RLock/Unlock/RUnlock calls on sync mutexes,
// returning the lock's key expression and the event kind.
func lockCall(info *types.Info, call *ast.CallExpr) (key, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock":
		kind = "lock"
	case "RLock":
		kind = "rlock"
	case "Unlock":
		kind = "unlock"
	case "RUnlock":
		kind = "runlock"
	case "Wait":
		// sync.WaitGroup.Wait / sync.Cond.Wait block on other goroutines.
		return "", ""
	default:
		return "", ""
	}
	return types.ExprString(sel.X), kind
}

// calloutDesc describes a call that must not run under a lock, or "".
func calloutDesc(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		// sync.WaitGroup.Wait blocks on other goroutines' progress.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "sync" && obj.Name() == "Wait" {
			return "sync Wait"
		}
		// Package-level function of a callout package, or fmt writer.
		if ident, ok := fun.X.(*ast.Ident); ok {
			if pkgName, ok := info.Uses[ident].(*types.PkgName); ok {
				path := pkgName.Imported().Path()
				if what, ok := calloutPkgs[path]; ok {
					return what + " (" + path + "." + fun.Sel.Name + ")"
				}
				if path == "fmt" && fmtWriters[fun.Sel.Name] {
					return "writer output (fmt." + fun.Sel.Name + ")"
				}
				return ""
			}
		}
		// Method whose defining package is a callout package (e.g.
		// http.ResponseWriter.Write, json.Encoder.Encode on a net/http
		// response body).
		if selection := info.Selections[fun]; selection != nil && selection.Kind() == types.MethodVal {
			if fn, ok := selection.Obj().(*types.Func); ok && fn.Pkg() != nil {
				if what, ok := calloutPkgs[fn.Pkg().Path()]; ok {
					return what + " (" + fn.Pkg().Name() + " " + fn.Name() + " method)"
				}
			}
			return ""
		}
		// Calling a func-typed field (a stored callback).
		if v, ok := info.Uses[fun.Sel].(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return "callback " + types.ExprString(fun)
			}
		}
	case *ast.Ident:
		// Calling a func-typed parameter or variable (a callback handed in
		// by the user), as opposed to a declared function.
		if v, ok := info.Uses[fun].(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return "callback " + fun.Name
			}
		}
	}
	return ""
}
