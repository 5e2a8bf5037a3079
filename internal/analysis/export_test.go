package analysis

// MergedOnly returns opts in the paper's single-summary mode: every call
// binds the callee's merged fallback, as §5.2's pB does for recursion. It
// is the coarse reference the precision, equivalence and soundness suites
// compare context-sensitive results against; no production caller needs
// it.
func MergedOnly(opts Options) Options {
	opts.mergedOnly = true
	return opts
}
