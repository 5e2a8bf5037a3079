package main

// The correctness gate. Before the timed run, every base program's
// parallelized output must pass runtime.CheckEquivalence against its
// sequential program (the interpreter is the independent reference), and
// every distinct program gets reference bytes from a cold run. During the
// timed run each op's output hash must equal its program's reference
// hash, which covers warm == cold, HTTP == in-process and repeat == first.
// The gate's time is reported as check_s, never as a metric.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/runtime"
	"repro/internal/service"
	"repro/internal/sil/printer"
)

// analysisWorkers is the analysis worker pool of every workload: the
// benchmark machine has two CPUs.
const analysisWorkers = 2

// serviceOptions are the service defaults every service-backed workload
// runs with; Sessions is pinned so the pool does not follow the CPU count
// of whatever machine runs the benchmark.
func serviceOptions() service.Options {
	return service.Options{Analysis: analysis.Options{Workers: analysisWorkers}, Sessions: analysisWorkers}
}

type digest = [sha256.Size]byte

// pipelineOut is what one silc-path run produces.
type pipelineOut struct {
	info  *analysis.Info
	par   *par.Result
	space *matrix.Space
	text  string
}

// pipeline compiles p, analyzes it on a fresh Space, parallelizes it and
// prints the parallel program, with a child span of op span `parent`
// around each layer call.
func pipeline(p program, workers int, tr *tracer, op, parent int) (*pipelineOut, error) {
	s := tr.begin("sil.compile", op, parent)
	prog, err := progs.Compile(p.source)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	space := matrix.NewSpace(path.NewSpace())
	s = tr.begin("analysis.analyze", op, parent)
	info, err := analysis.Analyze(context.Background(), prog,
		analysis.Options{ExternalRoots: p.roots, Workers: workers, Space: space})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("par.parallelize", op, parent)
	res := par.Parallelize(info, par.DefaultOptions)
	tr.end(s)
	s = tr.begin("printer.print", op, parent)
	text := printer.Print(res.Prog)
	tr.end(s)
	return &pipelineOut{info: info, par: res, space: space, text: text}, nil
}

// gate computes reference outputs and accumulates the time it spends.
type gate struct {
	// svc is a fresh service with the result cache and the summary store
	// disabled: every reference is a cold analysis.
	svc     *service.Service
	elapsed time.Duration
}

func newGate() *gate {
	opts := serviceOptions()
	opts.CacheCapacity = -1
	opts.SummaryCapacity = -1
	return &gate{svc: service.New(opts)}
}

// setupFor binds each external root to a fresh depth-6 tree, or to a
// 64-node list for the list program.
func setupFor(p program) runtime.Setup {
	return func(h *heap.Heap, env map[string]interp.Value) {
		for _, r := range p.roots {
			if p.list {
				env[r] = interp.HandleV(h.BuildList(64))
			} else {
				env[r] = interp.HandleV(h.BuildBalanced(6, 1))
			}
		}
	}
}

// oneShotRef returns the digest of p's printed parallel program from a
// single-worker run, after checking that program against the sequential
// one in the interpreter.
func (g *gate) oneShotRef(p program) (digest, error) {
	defer g.timeSince(time.Now())
	out, err := pipeline(p, 1, nil, 0, -1)
	if err != nil {
		return digest{}, fmt.Errorf("%s: %w", p.name, err)
	}
	rep, err := runtime.CheckEquivalence(out.info.Prog, out.par.Prog, interp.Config{}, setupFor(p))
	if err != nil {
		return digest{}, fmt.Errorf("%s: equivalence check: %w", p.name, err)
	}
	if err := rep.Err(); err != nil {
		return digest{}, fmt.Errorf("%s: %w", p.name, err)
	}
	return sha256.Sum256([]byte(out.text)), nil
}

// serviceRef returns the digest of the reference service's result bytes
// for one request, and how long that cold analysis took.
func (g *gate) serviceRef(req service.Request) (digest, time.Duration, error) {
	start := time.Now()
	defer g.timeSince(start)
	resp := g.svc.Analyze(context.Background(), req)
	cold := time.Since(start)
	if resp.Err != nil {
		return digest{}, 0, fmt.Errorf("%s: reference analysis: %v", req.Name, resp.Err)
	}
	return sha256.Sum256(resp.Body), cold, nil
}

func (g *gate) timeSince(start time.Time) { g.elapsed += time.Since(start) }
