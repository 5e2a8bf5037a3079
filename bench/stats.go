package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailPercentile is the trace.latency_ms_tail rule: the highest of p99 and p90
// that leaves at least ten samples beyond it.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return 0.90
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spread report matches what a Python reader
// computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// fastestPerSlot folds the ops of each slot (one input replayed in several
// passes) into one op, in slot order: its latency is the fastest of theirs,
// and it is ok only if all of them are. The host can only add time to an
// op, and on the reference VM it slowed whole stretches of 10-15 s by up
// to 1.7x (bench/README.md, "Bounds and spreads"), which the median of a
// slot's passes follows and its fastest pass does not.
func fastestPerSlot(ops []op) []op {
	n := 0
	for _, o := range ops {
		n = max(n, o.slot+1)
	}
	bySlot := make([]op, n)
	seen := make([]bool, n)
	for _, o := range ops {
		s := &bySlot[o.slot]
		if !seen[o.slot] {
			*s, seen[o.slot] = o, true
			continue
		}
		s.lat = min(s.lat, o.lat)
		s.ok = s.ok && o.ok
	}
	out := make([]op, 0, n)
	for i, o := range bySlot {
		if seen[i] {
			out = append(out, o)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// exposition is a parsed Prometheus text exposition: series (name plus
// label set, as printed) to value.
type exposition map[string]float64

// parseExposition reads the text format, skipping comments and histogram
// bucket series.
func parseExposition(data []byte) exposition {
	out := exposition{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of family whose label set contains each of the
// label filters (e.g. `phase="parse"`). ok is false when no series
// matches: a family the service no longer exports reads as absent.
func (e exposition) sum(family string, labels ...string) (v float64, ok bool) {
	for series, x := range e {
		name, rest, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
			}
		}
		if match {
			v += x
			ok = true
		}
	}
	return v, ok
}

// delta is after minus before for one family; absent when either scrape
// lacks it.
func delta(before, after exposition, family string, labels ...string) (float64, bool) {
	a, okA := after.sum(family, labels...)
	b, okB := before.sum(family, labels...)
	return a - b, okA && okB
}

// addDelta adds after minus before, series by series, to e.
func (e exposition) addDelta(before, after exposition) {
	for series, v := range after {
		e[series] += v - before[series]
	}
}

// perPass divides every series of e, a sum over passes, by their number.
func (e exposition) perPass(passes int) exposition {
	out := exposition{}
	for series, v := range e {
		out[series] = v / float64(passes)
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio returns num/den, 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeMetrics reads /v1/metrics from an in-process handler: the same
// bytes a scraper gets, without opening a connection.
func scrapeMetrics(h http.Handler) (exposition, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", rec.Code)
	}
	return parseExposition(rec.Body.Bytes()), nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
