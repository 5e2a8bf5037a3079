package service

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/sil/ast"
	"repro/internal/sil/printer"
)

// Per-procedure fingerprints for the incremental-analysis layer. The
// result cache keys whole programs; the summary store keys procedures. A
// converged per-procedure summary is a function of the procedure's own
// transfer function — its body plus the bodies of everything it can
// reach through calls — so the store key folds the *cohort*: the
// procedure's body fingerprint combined with the body fingerprints of
// its reachable-callee closure (self included; SIL has no indirect
// calls, so the static call graph is exact). Editing any procedure
// changes the cohort fingerprint of exactly itself, its SCC, and its
// transitive callers — everything else keeps its key and stays warm.

// ProcFp carries the two fingerprints of one procedure.
type ProcFp struct {
	Body   Fp // over the printed canonical declaration
	Cohort Fp // Body folded with every reachable callee's Body
}

// ProcFingerprints computes body and cohort fingerprints for every
// procedure in a checked, normalized program.
func ProcFingerprints(prog *ast.Program) map[string]ProcFp {
	bodies := make(map[string]Fp, len(prog.Decls))
	for _, d := range prog.Decls {
		f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
		f.mixString("sil-proc/v1")
		f.mixString(printer.PrintDecl(d))
		bodies[d.Name] = f
	}
	callees := ast.Callees(prog)
	out := make(map[string]ProcFp, len(prog.Decls))
	for _, d := range prog.Decls {
		reach := map[string]bool{}
		var visit func(string)
		visit = func(n string) {
			if reach[n] {
				return
			}
			reach[n] = true
			for _, c := range callees[n] {
				visit(c)
			}
		}
		visit(d.Name)
		names := make([]string, 0, len(reach))
		for n := range reach {
			names = append(names, n)
		}
		sort.Strings(names)
		f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
		f.mixString("sil-cohort/v1")
		// The procedure's own body is mixed FIRST, outside the symmetric
		// closure fold: members of one SCC share the reachable set, and a
		// set-only key would alias their (distinct!) summaries in the store.
		self := bodies[d.Name]
		f.mix(self.Hi)
		f.mix(self.Lo)
		for _, n := range names {
			f.mixString(n)
			b := bodies[n]
			f.mix(b.Hi)
			f.mix(b.Lo)
		}
		out[d.Name] = ProcFp{Body: bodies[d.Name], Cohort: f}
	}
	return out
}

// SummaryKey keys one procedure's converged summary in the summary
// store: the cohort fingerprint plus every analysis option that can
// change a summary — the same option set ProgramFingerprint folds, minus
// the source (the cohort replaces it). Like ProgramFingerprint, pure work
// caps (MaxWorklist) stay out: they cannot change a converged summary.
func SummaryKey(cohort Fp, opts analysis.Options) Fp {
	f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
	f.mixString("sil-summary/v1")
	f.mix(cohort.Hi)
	f.mix(cohort.Lo)
	f.mixInt(len(opts.ExternalRoots))
	for _, r := range opts.ExternalRoots {
		f.mixString(r)
	}
	f.mixInt(opts.MaxContexts)
	f.mixInt(opts.MaxLoopIters)
	f.mixInt(opts.Limits.MaxExact)
	f.mixInt(opts.Limits.MaxSegs)
	f.mixInt(opts.Limits.MaxPaths)
	return f
}
