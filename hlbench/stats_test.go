package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {99, 4.96},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestPassStatsFixedRank: with the same 100 keys in every pass, the
// reported p99 stays the second-costliest key's time whatever the number
// of passes, where a pooled p99 would move between the top two keys.
func TestPassStatsFixedRank(t *testing.T) {
	for passes := 9; passes <= 11; passes++ {
		var s passStats
		for p := 0; p < passes; p++ {
			for k := 1; k <= 100; k++ {
				s.add(float64(k * k))
			}
			s.endPass()
		}
		if got, want := median(s.p99), 99.0*99+0.01*(100*100-99*99); !near(got, want) {
			t.Errorf("%d passes: p99 = %v, want %v", passes, got, want)
		}
		if got := median(s.p50); !near(got, 50.5*50.5+0.25) {
			t.Errorf("%d passes: p50 = %v, want %v", passes, got, 50.5*50.5+0.25)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2}); !near(got, 2) {
		t.Errorf("geomean of one = %v, want 2", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}} {
		if !math.IsNaN(geomean(xs)) {
			t.Errorf("geomean(%v) should be NaN", xs)
		}
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
	if ratio(1, 0) != 0 || ratio(1, 4) != 0.25 {
		t.Error("ratio mishandles its base")
	}
}

// fakeClock advances only when told to: sleeping moves it forward to the
// target, and an executed operation moves it by its cost.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

func TestRunLaneChargesStallToQueuedRequests(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	ms := time.Millisecond
	dues := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	cost := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms}
	var order []int
	got := runLane(clk, start, dues, func(i int) {
		order = append(order, i)
		clk.t = clk.t.Add(cost[i])
	})
	// Op 1 stalls from 10 to 45 ms. Ops 2 and 3 were due at 20 and 30 ms,
	// so they are sent late and charged from their due times; op 4 is due
	// after the backlog has drained and pays nothing.
	wantLatency := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 1 * ms}
	wantLate := []time.Duration{0, 0, 25 * ms, 16 * ms, 0}
	for i := range dues {
		if got[i].latency() != wantLatency[i] {
			t.Errorf("op %d latency = %v, want %v", i, got[i].latency(), wantLatency[i])
		}
		if got[i].lateness() != wantLate[i] {
			t.Errorf("op %d lateness = %v, want %v", i, got[i].lateness(), wantLate[i])
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ops ran out of order: %v", order)
		}
	}
}
