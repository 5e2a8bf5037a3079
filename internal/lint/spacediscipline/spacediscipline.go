// Package spacediscipline enforces the per-Space isolation invariant from
// the Space refactor (PR 6): library code threads an explicit *path.Space /
// *matrix.Space and never falls back to the process-global one. The
// process-global convenience forms (path.DefaultSpace, path.Parse,
// matrix.New, ...) are for composition roots — package main binaries and
// test files — where the choice of the global Space is an explicit
// top-level decision, not a silent default deep in a call chain.
package spacediscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/lintkit"
)

// banned maps the import path of a Space-owning package to its
// process-global convenience functions and, per function, the
// Space-receiver form library code must use instead.
var banned = map[string]map[string]string{
	"repro/internal/path": {
		"DefaultSpace": "thread a *path.Space (path.NewSpace, or the Space owned by the caller)",
		"New":          "use (*path.Space).New",
		"NewPossible":  "use (*path.Space).NewPossible",
		"Parse":        "use (*path.Space).Parse",
		"MustParse":    "use (*path.Space).Parse on an explicit Space",
		"ParseSet":     "use (*path.Space).ParseSet",
		"MustParseSet": "use (*path.Space).ParseSet on an explicit Space",
	},
	"repro/internal/matrix": {
		"DefaultSpace": "thread a *matrix.Space (matrix.NewSpace, or Options.Space)",
		"New":          "use matrix.NewIn with an explicit *matrix.Space",
	},
}

// Analyzer is the spacediscipline check.
var Analyzer = &lintkit.Analyzer{
	Name: "spacediscipline",
	Doc: "forbid process-global Space fallbacks (path.DefaultSpace, path.Parse, " +
		"matrix.New, ...) outside package main and _test.go files, so library " +
		"code always interns into an explicitly threaded Space",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	// Composition roots pick the global Space deliberately; the defining
	// packages implement it. Both are exempt wholesale.
	if pass.Pkg.Name() == "main" {
		return nil
	}
	if _, defining := banned[pass.Pkg.Path()]; defining {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			fns := banned[pkgName.Imported().Path()]
			if fns == nil {
				return true
			}
			fix, ok := fns[sel.Sel.Name]
			if !ok {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s binds the process-global Space in library code; %s",
				pkgName.Imported().Name(), sel.Sel.Name, fix)
			return true
		})
	}
	return nil
}
