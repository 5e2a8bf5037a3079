package analysis

// Whole-analysis soundness property test: for random programs, the path
// matrix at main's exit must cover every concrete relationship among
// main's handles — if node(y) is reachable from node(x) by an edge word
// w, then p[x,y] contains a path expression denoting w; if x and y name
// the same node, p[x,y] contains S. This is the defining invariant of §4
// ("the path matrix ... is guaranteed to contain all possible
// relationships among handles").

import (
	"context"

	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/matrix"
	"repro/internal/path"
	"repro/internal/progs"
	"repro/internal/sil/ast"
)

// concreteWords enumerates all edge words (over 'l'/'r') from node a to
// node b up to maxLen, on the given heap. Cycles are cut by the length
// bound.
func concreteWords(h *heap.Heap, a, b heap.NodeID, maxLen int) []string {
	var out []string
	var walk func(cur heap.NodeID, w string)
	walk = func(cur heap.NodeID, w string) {
		if cur.IsNil() || len(w) > maxLen {
			return
		}
		if cur == b && len(w) > 0 {
			out = append(out, w)
		}
		l, _ := h.Link(cur, heap.Left)
		r, _ := h.Link(cur, heap.Right)
		walk(l, w+"l")
		walk(r, w+"r")
	}
	walk(a, "")
	return out
}

// wordPath converts a concrete edge word into an exact path expression.
func wordPath(w string) path.Path {
	segs := make([]path.Seg, 0, len(w))
	for i := 0; i < len(w); i++ {
		d := path.LeftD
		if w[i] == 'r' {
			d = path.RightD
		}
		segs = append(segs, path.Exact(d, 1))
	}
	return path.New(segs...)
}

func coveredBy(entry path.Set, w string) bool {
	wp := wordPath(w)
	for _, p := range entry.Paths() {
		if path.MayOverlap(wp, p) {
			return true
		}
	}
	return false
}

func TestAnalysisCoversConcreteRelationships(t *testing.T) {
	// Both summary modes must cover the concrete executions: the call-site
	// table and the merged (context-insensitive) reference mode.
	for _, mode := range []struct {
		name   string
		merged bool
	}{{"ctx", false}, {"merged", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			coverSoundness(t, mode.merged)
		})
	}
}

// dumpFailureSeed writes the failing random program to SIL_FAILURE_DIR (if
// set), so CI can upload the reproducing seeds as artifacts.
func dumpFailureSeed(t *testing.T, seed int64, src string) {
	dir := os.Getenv("SIL_FAILURE_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("seed dump: %v", err)
		return
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed-%d.sil", strings.ReplaceAll(t.Name(), "/", "_"), seed))
	if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
		t.Logf("seed dump: %v", err)
	}
}

func coverSoundness(t *testing.T, merged bool) {
	// The scheduled CI soundness job widens the random-program budget via
	// SIL_QUICK_SCALE; per-PR runs keep the fast default.
	trials := 250
	if v, err := strconv.Atoi(os.Getenv("SIL_QUICK_SCALE")); err == nil && v > 0 {
		trials *= v
	}
	const maxWordLen = 6
	checked := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		src := progs.RandomProgram(seed)
		dumped := false
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf(format, args...)
			if !dumped {
				dumped = true
				dumpFailureSeed(t, seed, src)
			}
		}
		prog, err := progs.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		opts := Options{}
		if merged {
			opts = MergedOnly(opts)
		}
		info, err := Analyze(context.Background(), prog, opts)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		res, err := interp.Run(prog, interp.Config{MaxSteps: 300_000}, nil)
		if err != nil {
			continue // non-terminating random structure; skip
		}
		main := prog.Proc("main")
		last := main.Body.Stmts[len(main.Body.Stmts)-1]
		m := info.After[last]
		if m == nil {
			t.Fatalf("seed %d: no exit matrix", seed)
		}
		checked++
		// Collect main's handle bindings.
		type bind struct {
			name string
			node heap.NodeID
		}
		var binds []bind
		for _, v := range main.Locals {
			if v.Type != ast.HandleT {
				continue
			}
			val := res.Env[v.Name]
			if !val.IsHandle || val.Node.IsNil() {
				continue
			}
			binds = append(binds, bind{v.Name, val.Node})
		}
		// Word coverage is the TREE/DAG invariant; once the analyzer has
		// flagged a (possible) cycle, the matrix can no longer enumerate
		// the unbounded cycle words — the paper's own scoping ("the
		// structure can no longer be considered a TREE or a DAG", §4).
		// Aliasing and shape soundness still hold and stay checked.
		cyclic := m.Shape() >= matrix.ShapeMaybeCyclic
		for _, x := range binds {
			for _, y := range binds {
				hx, hy := matrix.Handle(x.name), matrix.Handle(y.name)
				entry := m.Get(hx, hy)
				if x.node == y.node && x.name != y.name {
					if !entry.HasSame() {
						fail("seed %d: %s and %s are the same node but p[%s,%s]=%s lacks S\n%s",
							seed, x.name, y.name, x.name, y.name, entry, src)
					}
				}
				if cyclic {
					continue
				}
				for _, w := range concreteWords(res.Heap, x.node, y.node, maxWordLen) {
					if !coveredBy(entry, w) {
						fail("seed %d: concrete path %q from %s to %s not covered by p[%s,%s]=%s\n%s",
							seed, w, x.name, y.name, x.name, y.name, entry, src)
					}
				}
				// Nil-ness soundness: a handle claimed definitely nil must
				// be nil (checked by construction above: binds only holds
				// non-nil handles).
				if m.Attr(hx).Nil == matrix.DefNil {
					fail("seed %d: %s claimed definitely nil but holds node %d", seed, x.name, x.node)
				}
			}
		}
		// Structure soundness: the concrete shape must be covered by the
		// static estimate at exit (TREE < DAG < CYCLE severity order).
		roots := make([]heap.NodeID, 0, len(binds))
		for _, b := range binds {
			roots = append(roots, b.node)
		}
		concrete := res.Heap.Classify(roots...)
		static := m.Shape()
		ok := true
		switch concrete {
		case heap.Cyclic:
			ok = static >= matrix.ShapeMaybeCyclic
		case heap.DAG:
			ok = static >= matrix.ShapeMaybeDAG
		}
		if !ok {
			fail("seed %d: concrete shape %v but static estimate %v\n%s", seed, concrete, static, src)
		}
	}
	if checked < trials/2 {
		t.Errorf("only %d/%d random programs checkable", checked, trials)
	}
}
