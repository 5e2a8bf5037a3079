package main

// The open-loop generator of serve-zipf. Requests are due at seeded
// Poisson arrival times whatever the server does, and each is timed from
// its due time, so a stall also charges the requests that queue behind it
// (no coordinated omission). At most `workers` requests are in flight.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts time for the generator so tests can drive it.
type clock interface {
	now() time.Duration // since the run started
	sleepUntil(t time.Duration)
}

type realClock struct{ t0 time.Time }

func (c realClock) now() time.Duration { return time.Since(c.t0) }

func (c realClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// poissonSchedule returns arrival times of a Poisson process with the
// given rate (per second) over [0, span).
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// sent is the generator's record of one request, relative to run start.
type sent struct {
	due, start, end time.Duration
	// skipped marks a request not sent because the backlog passed the
	// drain limit; it counts as failed.
	skipped bool
}

// latency is the request's time from due to completion.
func (s sent) latency() time.Duration { return s.end - s.due }

// late is how far behind its due time the generator sent the request.
func (s sent) late() time.Duration { return s.start - s.due }

// openLoop sends request i at due[i] from `workers` goroutines, which take
// requests in due order. Requests that would start after `limit` are
// skipped. While it waits, the calling goroutine runs tick (if non-nil)
// every tickEvery, which is how the traced run samples gauges without a
// further goroutine.
func openLoop(clk clock, due []time.Duration, workers int, limit time.Duration,
	send func(i int), tick func(), tickEvery time.Duration) []sent {
	out := make([]sent, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				start := clk.now()
				if start > limit {
					out[i] = sent{due: due[i], start: start, end: start, skipped: true}
					continue
				}
				send(i)
				out[i] = sent{due: due[i], start: start, end: clk.now()}
			}
		}()
	}
	if tick == nil {
		wg.Wait()
		return out
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTicker(tickEvery)
	defer t.Stop()
	for {
		select {
		case <-done:
			return out
		case <-t.C:
			tick()
		}
	}
}
