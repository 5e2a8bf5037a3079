package service

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/path"
)

// Canonical 128-bit program fingerprints — the result-cache key. The input
// is the PRINTED CANONICAL AST (parse → check → normalize → print), so any
// two sources that parse to the same structure key identically, however
// they were formatted on the wire; the round-trip property test pins that
// Parse(Print(p)) ≡ p, which makes the print a faithful canonical form.
// The hash reuses the two-lane Mix64 construction of the path-set and
// matrix fingerprints (path.Mix64 chaining per lane with distinct seeds);
// unlike those, it hashes names and bytes — never interned IDs — so it is
// stable across Space epochs and across processes.

// Fp is a comparable 128-bit fingerprint.
type Fp struct{ Hi, Lo uint64 }

// String renders the fingerprint as 32 hex digits.
func (f Fp) String() string { return fmt.Sprintf("%016x%016x", f.Hi, f.Lo) }

const (
	fpSeedHi uint64 = 0x243f6a8885a308d3 // pi
	fpSeedLo uint64 = 0x13198a2e03707344
)

// mix folds one 64-bit word into both lanes.
func (f *Fp) mix(x uint64) {
	f.Hi = path.Mix64(f.Hi ^ x)
	f.Lo = path.Mix64(f.Lo + path.Mix64(x))
}

// mixString folds a length-prefixed string into the fingerprint (the
// prefix keeps concatenations unambiguous).
func (f *Fp) mixString(s string) {
	f.mix(uint64(len(s)))
	var word uint64
	n := 0
	for i := 0; i < len(s); i++ {
		word = word<<8 | uint64(s[i])
		if n++; n == 8 {
			f.mix(word)
			word, n = 0, 0
		}
	}
	if n > 0 {
		f.mix(word)
	}
}

// mixInt folds a signed integer.
func (f *Fp) mixInt(v int) { f.mix(uint64(int64(v))) }

// ProgramFingerprint keys one analysis result: the canonical program text
// plus every option that can change the result. The analysis worker count
// is deliberately excluded — the round-based engine is bit-identical
// across pool sizes, so results are worker-independent by construction.
// MaxWorklist is excluded for the same reason as Workers and Budgets: a
// pure work cap can only fail a run, never change a successful result's
// bytes, so folding it would split the cache on a non-semantic knob
// (fppurity enforces this class statically).
func ProgramFingerprint(canonicalSource string, opts analysis.Options) Fp {
	f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
	f.mixString("sil-result/v1")
	f.mixString(canonicalSource)
	f.mixInt(len(opts.ExternalRoots))
	for _, r := range opts.ExternalRoots {
		f.mixString(r)
	}
	f.mixInt(opts.MaxLoopIters)
	f.mixInt(opts.Limits.MaxExact)
	f.mixInt(opts.Limits.MaxSegs)
	f.mixInt(opts.Limits.MaxPaths)
	return f
}
