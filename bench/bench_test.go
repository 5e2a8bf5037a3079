package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/progs"
	"repro/internal/sil/printer"
)

func sources(ps []program) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.source
	}
	return out
}

func sessionSources(t *testing.T, seed int64) []string {
	t.Helper()
	reqs, err := editStream(editBases(), seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.Source
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	pop1, err := zipfPopulation(1)
	if err != nil {
		t.Fatal(err)
	}
	pop1b, _ := zipfPopulation(1)
	pop2, _ := zipfPopulation(2)
	cases := []struct {
		name      string
		a, b, c   []string
		wantCount int
	}{
		{"chain", sources(chainPrograms(1)), sources(chainPrograms(1)), sources(chainPrograms(2)), 16},
		{"zipf", sources(pop1), sources(pop1b), sources(pop2), 600},
		{"edit", sessionSources(t, 1), sessionSources(t, 1), sessionSources(t, 2), editSessionsPerRun * editsPerSession},
	}
	for _, c := range cases {
		if !slices.Equal(c.a, c.b) {
			t.Errorf("%s: the same seed gave different sources", c.name)
		}
		if slices.Equal(c.a, c.c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sources", c.name)
		}
		if len(c.a) != c.wantCount {
			t.Errorf("%s: %d sources, want %d", c.name, len(c.a), c.wantCount)
		}
	}
	if n := len(slices.Compact(slices.Sorted(slices.Values(sources(pop1))))); n != 600 {
		t.Errorf("zipf population has %d distinct sources, want 600", n)
	}
}

// The chain depths are fixed; the seed only shuffles and relabels.
func TestChainDepthsAreSeedIndependent(t *testing.T) {
	depths := func(seed int64) []int {
		var ks []int
		for _, p := range chainPrograms(seed) {
			ks = append(ks, p.depth)
		}
		return slices.Sorted(slices.Values(ks))
	}
	if !slices.Equal(depths(1), depths(7)) || !slices.Equal(depths(1), chainDepths[:]) {
		t.Errorf("chain depths %v vs %v, want the multiset %v", depths(1), depths(7), chainDepths)
	}
}

// The edit shape is fixed; the seed only changes literal values.
func TestEditShapeIsSeedIndependent(t *testing.T) {
	shapes := func(seed int64) []string {
		var out []string
		for _, src := range sessionSources(t, seed) {
			out = append(out, number.ReplaceAllString(src, "#"))
		}
		return out
	}
	if !slices.Equal(shapes(1), shapes(6)) {
		t.Errorf("seeds 1 and 6 give edit sessions of different shapes")
	}
}

var number = regexp.MustCompile(`[0-9]+`)

func TestFastestPerSlot(t *testing.T) {
	const us = time.Microsecond
	ops := []op{
		{slot: 3, lat: 30 * us, miss: true, ok: true}, {slot: 0, lat: 7 * us, ok: true},
		{slot: 3, lat: 10 * us, ok: false}, {slot: 0, lat: 5 * us, ok: true},
		{slot: 3, lat: 20 * us, ok: true},
	}
	got := fastestPerSlot(ops)
	if len(got) != 2 || got[0].slot != 0 || got[1].slot != 3 {
		t.Fatalf("slots %v, want 0 and 3 in order", got)
	}
	if got[0].lat != 5*us || got[1].lat != 10*us {
		t.Errorf("latencies %v %v, want 5µs 10µs", got[0].lat, got[1].lat)
	}
	if !got[0].ok || got[1].ok {
		t.Errorf("a slot is ok only when every op of it is")
	}
	if got[0].miss || !got[1].miss {
		t.Errorf("a slot keeps the miss flag of its first op")
	}
}

func TestChainProgramsAnalyzeWithinBudget(t *testing.T) {
	for _, p := range chainPrograms(1) {
		prog, err := progs.Compile(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		info, err := analysis.Analyze(context.Background(), prog,
			analysis.Options{ExternalRoots: p.roots, Workers: analysisWorkers})
		if err != nil {
			t.Fatalf("%s (k=%d): %v", p.name, p.depth, err)
		}
		if info.FixpointSteps == 0 {
			t.Errorf("%s: no fixpoint steps", p.name)
		}
	}
}

func TestEditKindsChangeThePrint(t *testing.T) {
	bases := editBases()
	if len(bases) == 0 {
		t.Fatal("no editable bases")
	}
	rng := rand.New(rand.NewSource(3))
	for _, base := range bases[:3] {
		canon := printer.Print(progs.MustCompile(base.source))
		for _, kind := range editKinds {
			if kind == "revert" {
				continue
			}
			out, ok, err := applyEdit(canon, kind, rng, rng)
			if err != nil || !ok {
				t.Fatalf("%s on %s: ok=%v err=%v", kind, base.name, ok, err)
			}
			if out == canon {
				t.Errorf("%s on %s left the canonical print unchanged", kind, base.name)
			}
			if _, err := progs.Compile(out); err != nil {
				t.Errorf("%s on %s does not compile: %v", kind, base.name, err)
			}
		}
	}
	// A revert reproduces an earlier print; every other edit changes it.
	reverts := 0
	for _, base := range bases {
		edits, err := editSession(base, rng, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{canonical(t, base.source): true}
		prev := canonical(t, base.source)
		for i, e := range edits {
			switch {
			case e.kind == "revert":
				reverts++
				if !seen[e.source] {
					t.Errorf("%s edit %d: revert to a print the session never had", base.name, i)
				}
			case e.source == prev:
				t.Errorf("%s edit %d: %s left the print unchanged", base.name, i, e.kind)
			}
			seen[e.source], prev = true, e.source
		}
	}
	if reverts == 0 {
		t.Errorf("no reverts in %d sessions", len(bases))
	}
}

func canonical(t *testing.T, src string) string {
	t.Helper()
	return printer.Print(progs.MustCompile(src))
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{100, 500, 999, 1000, 5000, 50000} {
		p := tailPercentile(n)
		if beyond := int(math.Round(float64(n) * (1 - p))); beyond < 10 {
			t.Errorf("n=%d: p%.0f leaves %d samples beyond it", n, 100*p, beyond)
		}
	}
	if tailPercentile(999) != 0.90 || tailPercentile(1000) != 0.99 {
		t.Errorf("the rule switches to p99 at 1000 ops")
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", q)
	}
	if q := quantile([]float64{1, 2}, 0.5); q != 1.5 {
		t.Errorf("median of 1,2 = %v, want 1.5", q)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1,2,3 = %v %v %v", q1, q2, q3)
	}
}

type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	const msec = time.Millisecond
	due := []time.Duration{0, 1 * msec, 2 * msec, 10 * msec}
	run := func(limit time.Duration) []sent {
		clk := &fakeClock{}
		// One worker, so the fake clock is only touched by one goroutine.
		return openLoop(clk, due, 1, limit, func(int) { clk.t += 2500 * time.Microsecond }, nil, 0)
	}
	got := run(time.Hour)
	wantLat := []time.Duration{2500 * time.Microsecond, 4 * msec, 5500 * time.Microsecond, 2500 * time.Microsecond}
	wantLate := []time.Duration{0, 1500 * time.Microsecond, 3 * msec, 0}
	for i, s := range got {
		if s.latency() != wantLat[i] || s.late() != wantLate[i] || s.skipped {
			t.Errorf("request %d: latency %v late %v skipped %v, want %v %v false",
				i, s.latency(), s.late(), s.skipped, wantLat[i], wantLate[i])
		}
	}
	// Past the drain limit requests are skipped, not sent.
	got = run(4 * msec)
	if got[1].skipped || !got[2].skipped || !got[3].skipped {
		t.Errorf("skipped = %v %v %v, want false true true", got[1].skipped, got[2].skipped, got[3].skipped)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 1000, 10*time.Second)
	if n := len(due); n < 9700 || n > 10300 {
		t.Errorf("%d arrivals in 10s at 1000/s", n)
	}
	if !slices.IsSorted(due) || due[len(due)-1] >= 10*time.Second {
		t.Errorf("arrivals not sorted inside the span")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "d", Parent: 1, Start: 20, End: 25},  // child of a
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 100 - 50 - 10, "a": 30 - 5, "b": 30, "c": 30, "d": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestMetricsDeltas(t *testing.T) {
	before := parseExposition([]byte(`# HELP sil_cache_hits_total x
# TYPE sil_cache_hits_total counter
sil_cache_hits_total{shard="0"} 10
sil_phase_seconds_bucket{shard="0",phase="parse",le="0.001"} 3
sil_phase_seconds_sum{shard="0",phase="parse"} 0.5
sil_phase_seconds_count{shard="0",phase="parse"} 4
sil_phase_seconds_sum{shard="0",phase="fixpoint"} 2
sil_phase_seconds_count{shard="0",phase="fixpoint"} 4
`))
	after := parseExposition([]byte(`sil_cache_hits_total{shard="0"} 25
sil_cache_hits_total{shard="1"} 5
sil_phase_seconds_sum{shard="0",phase="parse"} 0.75
sil_phase_seconds_count{shard="0",phase="parse"} 9
sil_phase_seconds_sum{shard="0",phase="fixpoint"} 3.5
sil_phase_seconds_count{shard="0",phase="fixpoint"} 5
`))
	if d, ok := delta(before, after, "sil_cache_hits_total"); !ok || d != 20 {
		t.Errorf("hits delta = %v %v, want 20 (summed over shards)", d, ok)
	}
	sum, _ := delta(before, after, "sil_phase_seconds_sum", `phase="parse"`)
	count, _ := delta(before, after, "sil_phase_seconds_count", `phase="parse"`)
	if sum != 0.25 || count != 5 {
		t.Errorf("parse sum/count delta = %v/%v, want 0.25/5", sum, count)
	}
	if _, ok := before.sum("sil_phase_seconds_bucket"); ok {
		t.Errorf("bucket series must be skipped")
	}
	if _, ok := delta(before, after, "sil_no_such_family"); ok {
		t.Errorf("a missing family must read as absent")
	}
	layers := serviceLayers(before, after)
	if got := layers["service.phase_fixpoint_ms"]; got != 1500 {
		t.Errorf("fixpoint ms per observation = %v, want 1500", got)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if spec, ok := findWorkload(w.Name); !ok || strings.TrimSpace(w.Why) == "" || spec.why != w.Why {
			t.Errorf("workload %q: not reported by the program, or its why differs", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(names), len(workloads))
	}
	check := func(kind string, defs []metricDef, got []metricDef) {
		if !slices.Equal(defs, got) {
			t.Errorf("%s metrics differ:\nprogram: %v\njson:    %v", kind, defs, got)
		}
	}
	var e2e, layer []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}
