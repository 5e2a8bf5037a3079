// Package a is spacediscipline testdata: a library package that must
// thread Spaces explicitly.
package a

import (
	"repro/internal/matrix"
	"repro/internal/path"
)

// Bad: every process-global convenience form is a finding in library code.
func bad() {
	_ = path.DefaultSpace()                 // want `path\.DefaultSpace binds the process-global Space`
	_ = path.New(path.Exact(path.DownD, 1)) // want `path\.New binds the process-global Space`
	_, _ = path.Parse("D+")                 // want `path\.Parse binds the process-global Space`
	_ = path.MustParse("D+")                // want `path\.MustParse binds the process-global Space`
	_ = path.MustParseSet("S, D+?")         // want `path\.MustParseSet binds the process-global Space`
	_ = matrix.New()                        // want `matrix\.New binds the process-global Space`
	_ = matrix.DefaultSpace()               // want `matrix\.DefaultSpace binds the process-global Space`
	_, _ = path.ParseSet("S, R1D+?")        // want `path\.ParseSet binds the process-global Space`
}

// Good: Space-receiver forms thread an explicit Space.
func good(psp *path.Space, msp *matrix.Space) {
	_ = psp.New(path.Exact(path.DownD, 1))
	_, _ = psp.Parse("D+")
	_, _ = psp.ParseSet("S, D+?")
	_ = psp.InternedCount()
	_ = matrix.NewIn(msp)
	_ = msp.InternedHandles()
	_ = path.NewSet(path.Same()) // Space-neutral: aggregates interned values
	_ = path.NewSpace()          // creating a fresh Space is the fix, not a finding
	_ = matrix.NewSpace(path.NewSpace())
}

// allowed: an explicit, audited fallback is suppressed case by case.
func allowed() {
	_ = matrix.DefaultSpace() //sillint:allow spacediscipline audited composition-root fallback
	//sillint:allow spacediscipline directive on the preceding line also suppresses
	_ = path.DefaultSpace()
}
