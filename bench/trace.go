package main

// Span tracing for the traced run (-trace 1). Spans are recorded by the
// benchmark itself around its calls into each layer's public functions;
// nothing inside the program under test is instrumented. Spans stay in
// memory and are written out when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval. Times are nanoseconds since the tracer was
// created; Parent is the index of the enclosing span, -1 for an op span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans from one goroutine. A nil *tracer records
// nothing, so the untraced run pays one nil check per span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// add records a span measured elsewhere, as offsets from base (the
// open-loop generator times its requests itself), and returns its index.
func (t *tracer) add(name string, op, parent int, base time.Time, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	off := base.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: (off + start).Nanoseconds(), End: (off + end).Nanoseconds()})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of it that its child spans cover.
// Overlapping children are counted once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as JSON.
func (t *tracer) write(file string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}
