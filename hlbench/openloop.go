package main

import "time"

// clock is the time source of an open-loop lane; tests substitute a fake
// one so stall accounting can be checked exactly.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// opTiming records when an operation was due, when the lane actually sent
// it, and when it completed.
type opTiming struct {
	due, sent, done time.Time
}

// latency is the operation's latency charged from its due time, so a
// request queued behind a stalled one pays the stall too.
func (t opTiming) latency() time.Duration { return t.done.Sub(t.due) }

// lateness is how long after its due time the lane sent the operation.
func (t opTiming) lateness() time.Duration { return t.sent.Sub(t.due) }

// runLane executes operations in order on the calling goroutine, each no
// earlier than start+dues[i]. It never skips or reorders an operation:
// when one overruns, the next is sent the moment the lane is free, and
// its latency still counts from its own due time. dues must be
// non-decreasing.
func runLane(clk clock, start time.Time, dues []time.Duration, exec func(i int)) []opTiming {
	out := make([]opTiming, len(dues))
	for i, d := range dues {
		due := start.Add(d)
		clk.sleepUntil(due)
		sent := clk.now()
		exec(i)
		out[i] = opTiming{due: due, sent: sent, done: clk.now()}
	}
	return out
}
