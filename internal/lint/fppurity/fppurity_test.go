package fppurity_test

import (
	"testing"

	"repro/internal/lint/fppurity"
	"repro/internal/lint/lintest"
	"repro/internal/lint/lintkit"
)

// TestFingerprintPurity drives the cross-package fixtures: poisoned values
// (wall clock, env, pointer addresses, schedule knobs, pure work caps)
// reach Mix-family sinks directly, through locals, and through callees in
// a sibling package; clean flows (canonical bytes, semantics-affecting
// options, constant-returning callees) stay silent.
func TestFingerprintPurity(t *testing.T) {
	orig := fppurity.Scope
	fppurity.Scope = append([]string{"fptree"}, orig...)
	defer func() { fppurity.Scope = orig }()
	lintest.RunTree(t, []*lintkit.Analyzer{fppurity.Analyzer}, "testdata/src/fptree")
}

// TestOutOfScopePackagesPass proves sinks outside Scope are silent: a
// hash outside the scoped packages is not a result fingerprint.
func TestOutOfScopePackagesPass(t *testing.T) {
	orig := fppurity.Scope
	fppurity.Scope = []string{"repro/internal/service"}
	defer func() { fppurity.Scope = orig }()
	lintest.RunTree(t, []*lintkit.Analyzer{fppurity.Analyzer}, "testdata/src/fpclean")
}
