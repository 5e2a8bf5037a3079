package main

// The spread report: every workload run N times, each run in its own child
// process with its own seed, alternating the workload order between
// rounds. For each metric it prints the median, the quartiles and the
// relative spread (interquartile range over median), and writes the whole
// report as JSON on standard output.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"slices"
	"strconv"
)

// metricSummary is one metric of one workload over the rounds.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median.
	Spread float64 `json:"spread"`
	// Exact marks a value that repeated exactly in every round.
	Exact bool `json:"exact"`
}

type report struct {
	GoVersion string                              `json:"go_version"`
	NumCPU    int                                 `json:"nproc"`
	Seconds   int                                 `json:"seconds"`
	Traced    bool                                `json:"traced"`
	Seeds     []int64                             `json:"seeds"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

func repeatRuns(rounds int, seed int64, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{GoVersion: goruntime.Version(), NumCPU: goruntime.NumCPU(), Seconds: seconds,
		Traced: trace == 1, Workloads: map[string]map[string]metricSummary{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for round := range max(rounds, 1) {
		s := seed + int64(round)
		rep.Seeds = append(rep.Seeds, s)
		order := slices.Clone(workloads)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, s, res.Failed, res.Attempted)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for n, m := range res.Metrics {
				values[w.name][n] = append(values[w.name][n], m.Value)
				units[n] = m.Unit
			}
		}
	}
	for _, w := range workloads {
		sums := map[string]metricSummary{}
		for n, vs := range values[w.name] {
			q1, med, q3 := quartiles(vs)
			sums[n] = metricSummary{Unit: units[n], Values: vs, Median: med, Q1: q1, Q3: q3,
				Spread: ratio(q3-q1, med), Exact: slices.Min(vs) == slices.Max(vs)}
		}
		rep.Workloads[w.name] = sums
		fmt.Fprintf(os.Stderr, "\n%s\n", w.name)
		names := make([]string, 0, len(sums))
		for n := range sums {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			m := sums[n]
			exact := ""
			if m.Exact {
				exact = " exact"
			}
			fmt.Fprintf(os.Stderr, "  %-34s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f%s %s\n",
				n, m.Median, m.Q1, m.Q3, m.Spread, exact, m.Unit)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
