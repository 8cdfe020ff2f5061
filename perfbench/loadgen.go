package main

import (
	"sync"
	"time"
)

// timing is the open-loop record of one request, in nanoseconds since the
// generator started: when it was due, when the generator handed it to a
// sender, and when its answer arrived.
type timing struct {
	due, dispatched, done time.Duration
}

// latency is the request's latency timed from when it was due, so a
// stall that delays later requests counts against them too.
func (t timing) latency() time.Duration { return t.done - t.due }

// lag is how late the generator itself handed the request out.
func (t timing) lag() time.Duration { return t.dispatched - t.due }

// openLoop sends request i at its due time whether or not earlier
// requests have been answered, through conns concurrent senders (one
// connection each). send runs on a sender goroutine and must write only
// state owned by request i. openLoop returns once every request is
// answered.
func openLoop(due []time.Duration, conns int, send func(i int)) []timing {
	out := make([]timing, len(due))
	// Buffered to the number of sends, so the dispatcher never waits on a
	// busy sender: a backlog shows up as latency, not as generator lag.
	work := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				send(i)
				out[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		out[i].dispatched = time.Since(start)
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// evenSchedule returns n due times spaced 1/rate apart.
func evenSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	step := float64(time.Second) / rate
	for i := range due {
		due[i] = time.Duration(float64(i) * step)
	}
	return due
}
