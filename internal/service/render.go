package service

import (
	"encoding/json"
	"sort"

	"repro/internal/analysis"
	"repro/internal/par"
	"repro/internal/sil/ast"
)

// The result document is the canonical JSON body for one analyzed program.
// Everything in it must be DETERMINISTIC — independent of worker counts,
// map iteration order, interning history, and wall-clock — because cached
// and freshly analyzed responses are required to be byte-identical (the
// cache stores the rendered bytes and replays them verbatim; a fresh
// analysis of the same program must produce the same bytes). Timing
// therefore lives in /stats and transport headers, never here.

// ParamDoc describes one procedure parameter's mod-ref classification.
type ParamDoc struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	ReadOnly bool   `json:"read_only"`
	Update   bool   `json:"update,omitempty"`
	Links    bool   `json:"links,omitempty"`
	Attaches bool   `json:"attaches,omitempty"`
}

// ProcDoc summarizes one procedure of the analyzed program.
type ProcDoc struct {
	Name          string     `json:"name"`
	Params        []ParamDoc `json:"params,omitempty"`
	ModifiesLinks bool       `json:"modifies_links"`
	// ExactContexts counts live exact call contexts; HasFallback reports a
	// merged fallback (recursion).
	ExactContexts int  `json:"exact_contexts"`
	HasFallback   bool `json:"has_fallback"`
}

// LimitsDoc reflects the effective path-domain budgets (after service
// defaults and any per-request override) back to the client.
type LimitsDoc struct {
	MaxExact int `json:"max_exact"`
	MaxSegs  int `json:"max_segs"`
	MaxPaths int `json:"max_paths"`
}

// ResultDoc is the canonical per-program analysis result.
//
// Schema history: v2 dropped the fallbacks_activated / fallback_analyses /
// exits_shared counters — they describe HOW a fixpoint was scheduled
// (lazy-fallback work, exit sharing), which warm summary-seeded runs
// legitimately skip, so they could not stay in a body that must be
// byte-identical between cold and warm analyses — and added the effective
// `limits` block. v3 dropped `mode` and both `evictions` fields: contexts
// are keyed by call site, so there is one mode and nothing is evicted.
type ResultDoc struct {
	Schema      string `json:"schema"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Workers is omitted on purpose: results are worker-independent.
	Limits LimitsDoc `json:"limits"`

	Shape     string   `json:"shape"`
	ExitShape string   `json:"exit_shape"`
	Diags     []string `json:"diagnostics"`

	// ParStatements/ParBranches report what the §5 parallelizer found.
	ParStatements int `json:"par_statements"`
	ParBranches   int `json:"par_branches"`

	// Context-table roll-up (see analysis.CtxTableStats).
	Contexts    int `json:"contexts"`
	MergedProcs int `json:"merged_procs"`

	Procedures []ProcDoc `json:"procedures"`
}

// renderResult builds the canonical JSON body for one analysis.
func renderResult(name string, fp Fp, info *analysis.Info, parRes *par.Result) ([]byte, error) {
	ct := info.ContextTableStats()
	doc := ResultDoc{
		Schema:      "sil-analysis/v3",
		Name:        name,
		Fingerprint: fp.String(),
		Limits: LimitsDoc{
			MaxExact: info.Opts.Limits.MaxExact,
			MaxSegs:  info.Opts.Limits.MaxSegs,
			MaxPaths: info.Opts.Limits.MaxPaths,
		},
		Shape:       info.Shape().String(),
		ExitShape:   info.ExitShape().String(),
		Diags:       info.DiagStrings(),
		Contexts:    ct.Exact,
		MergedProcs: ct.MergedProcs,
	}
	if doc.Diags == nil {
		doc.Diags = []string{}
	}
	if parRes != nil {
		doc.ParStatements = parRes.Stats.ParStatements
		doc.ParBranches = parRes.Stats.Branches
	}
	names := make([]string, 0, len(info.Summaries))
	for n := range info.Summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum := info.Summaries[n]
		pd := ProcDoc{Name: n, ModifiesLinks: sum.ModifiesLinks}
		for i, p := range sum.Proc.Params {
			pd.Params = append(pd.Params, ParamDoc{
				Name:     p.Name,
				Type:     p.Type.String(),
				ReadOnly: p.Type == ast.HandleT && sum.ReadOnlyParam(i),
				Update:   i < len(sum.UpdateParams) && sum.UpdateParams[i],
				Links:    i < len(sum.LinkParams) && sum.LinkParams[i],
				Attaches: i < len(sum.AttachesParams) && sum.AttachesParams[i],
			})
		}
		pd.ExactContexts, pd.HasFallback = sum.ContextStats()
		doc.Procedures = append(doc.Procedures, pd)
	}
	return json.Marshal(doc)
}
