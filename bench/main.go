// Command bench is the repository's end-to-end benchmark: four workloads
// that take SIL source in and bytes out, through the silc pipeline and the
// analysis service, with every output checked against a reference.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//	bash bench/run.sh [--repeat N] [--seed N] [--seconds S] [--trace 0|1]
//
// With --workload it runs that one workload in this process and prints
// its metrics, one per line, then a JSON object as the last line of
// standard output. --trace 1 prints the per-layer metrics instead of the
// end-to-end ones; --spans writes the traced run's spans. Without
// --workload it runs every workload N times (default 1), each run in a
// child process, alternating the workload order between rounds, and
// prints each metric's median, quartiles and relative spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same ones.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"latency_ms_p50", "ms", "lower"},
	{"miss_latency_ms_p50", "ms", "lower"},
	{"goodput_ops_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"sil.compile_ms", "ms", "lower"},
	{"sil.share", "fraction", "lower"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"analysis.share", "fraction", "lower"},
	{"analysis.fixpoint_steps", "count", "lower"},
	{"analysis.context_evictions", "count", "lower"},
	{"analysis.contexts_exact", "count", "higher"},
	{"analysis.fallback_analyses", "count", "lower"},
	{"path.memo_lookups", "count", "lower"},
	{"path.memo_verdicts", "count", "lower"},
	{"path.interned_paths", "count", "lower"},
	{"path.memo_hit_rate", "fraction", "higher"},
	{"matrix.interned_handles", "count", "lower"},
	{"par.parallelize_ms", "ms", "lower"},
	{"par.par_statements", "count", "higher"},
	{"printer.print_ms", "ms", "lower"},
	{"service.analyze_ms", "ms", "lower"},
	{"service.http.request_ms", "ms", "lower"},
	{"service.hit_rate", "fraction", "higher"},
	{"service.evictions", "count", "lower"},
	{"service.coalesced", "count", "higher"},
	{"service.shed", "count", "lower"},
	{"service.phase_parse_ms", "ms", "lower"},
	{"service.phase_fingerprint_ms", "ms", "lower"},
	{"service.phase_fixpoint_ms", "ms", "lower"},
	{"service.phase_render_ms", "ms", "lower"},
	{"service.summary_hit_rate", "fraction", "higher"},
	{"service.summary_invalidations", "count", "lower"},
	{"service.warm_over_cold", "fraction", "lower"},
	{"service.sessions_busy", "sessions", "lower"},
	{"service.queue_depth", "requests", "lower"},
	{"service.http.hit_latency_ms_p50", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.op_self_ms", "ms", "lower"},
	{"trace.latency_ms_p50", "ms", "lower"},
	{"trace.latency_ms_tail", "ms", "lower"},
}

// metric is one value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	name := flag.String("workload", "", "workload to run in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "timed seconds per run")
	trace := flag.Int("trace", 0, "1: traced run, report per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "traced run: write the spans to this JSON file")
	repeat := flag.Int("repeat", 1, "without -workload: rounds over all workloads")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1")
	}
	if *name == "" {
		if err := repeatRuns(*repeat, *seed, *seconds, *trace); err != nil {
			log.Fatal(err)
		}
		return
	}
	spec, ok := findWorkload(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	runtime.GOMAXPROCS(spec.procs)
	res, err := runWorkload(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		log.Fatalf("%s: %v", spec.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload sets the workload up, runs the reference phase, measures,
// and computes the metrics. The run sets up again between passes, so the
// set-up samples of setup_s spread over the run: on the reference VM the
// host switched between a fast and a 1.7x slower regime within one second,
// and nine set-ups in a row took either.
func runWorkload(spec workloadSpec, seed int64, seconds time.Duration, traced bool, spansFile string) (result, error) {
	w := spec.make(seed, seconds)
	defer w.close()
	var setups []float64
	setUp := func() error {
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return result{}, err
	}
	g := newGate()
	if err := w.check(g); err != nil {
		return result{}, fmt.Errorf("reference check: %w", err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	run, err := w.run(tr, setUp)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.1fs, check_s %.2f\n", spec.name, len(run.ops), run.elapsed.Seconds(), g.elapsed.Seconds())

	res := result{Attempted: len(run.ops), Metrics: map[string]metric{}}
	good := 0
	for i, o := range run.ops {
		if o.ok {
			if spec.limit == 0 || o.lat <= spec.limit {
				good++
			}
			continue
		}
		if res.Failed++; res.Failed <= 5 {
			fmt.Fprintf(os.Stderr, "%s: op %d on %s failed or differs from its reference\n", spec.name, i, o.prog)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var lat, missLat []time.Duration
	var goodSlots int
	var slotTime time.Duration
	for _, o := range fastestPerSlot(run.ops) {
		lat = append(lat, o.lat)
		if o.miss {
			missLat = append(missLat, o.lat)
		}
		if o.ok {
			goodSlots++
		}
		slotTime += o.lat
	}
	latMs := msAll(lat)
	// An open-loop run sends at its schedule's rate whatever the host does,
	// so its goodput is the ops within the limit per measured second. A
	// closed-loop run's rate follows the host's speed, so its goodput is
	// the rate one client sustains with every op at its fastest pass.
	goodput := float64(goodSlots) / slotTime.Seconds()
	if spec.openLoop {
		goodput = float64(good) / run.elapsed.Seconds()
	}

	values := map[string]float64{}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		values["latency_ms_p50"] = quantile(latMs, 0.5)
		values["miss_latency_ms_p50"] = quantile(msAll(missLat), 0.5)
		values["goodput_ops_s"] = goodput
		values["peak_rss_mb"] = rss
		values["setup_s"] = quantile(setups, 0.5)
	} else {
		for k, v := range run.layers {
			values[k] = v
		}
		for k, v := range spanLayers(tr.spans, len(run.ops)) {
			values[k] = v
		}
		// The tail is taken over every op: a slot's fastest pass would hide
		// the slow ones the tail is there to show.
		all := make([]float64, len(run.ops))
		for i, o := range run.ops {
			all[i] = ms(o.lat)
		}
		values["trace.latency_ms_p50"] = quantile(latMs, 0.5)
		values["trace.latency_ms_tail"] = quantile(all, spec.tail)
		if n := len(all); tailPercentile(n) != spec.tail {
			fmt.Fprintf(os.Stderr, "%s: note: %d ops; the tail rule would pick p%.0f, the workload fixes p%.0f\n",
				spec.name, n, 100*tailPercentile(n), 100*spec.tail)
		}
		if spansFile != "" {
			if err := tr.write(spansFile); err != nil {
				return result{}, err
			}
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// spanLayers turns the spans of a traced run into per-op self times (ms)
// and each layer's share of op time.
func spanLayers(spans []span, ops int) map[string]float64 {
	self := selfTimes(spans)
	var opTotal int64
	for _, s := range spans {
		if s.Parent < 0 {
			opTotal += s.End - s.Start
		}
	}
	perOp := func(name string) float64 { return ratio(float64(self[name])/1e6, float64(ops)) }
	share := func(name string) float64 { return ratio(float64(self[name]), float64(opTotal)) }
	return map[string]float64{
		"sil.compile_ms":          perOp("sil.compile"),
		"sil.share":               share("sil.compile"),
		"analysis.analyze_ms":     perOp("analysis.analyze"),
		"analysis.share":          share("analysis.analyze"),
		"par.parallelize_ms":      perOp("par.parallelize"),
		"printer.print_ms":        perOp("printer.print"),
		"service.analyze_ms":      perOp("service.analyze"),
		"service.http.request_ms": perOp("service.http"),
		"loadgen.op_self_ms":      perOp("op"),
	}
}
