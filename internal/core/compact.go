package core

import (
	"hilight/internal/circuit"
	"hilight/internal/route"
	"hilight/internal/sched"
)

// CompactSchedule is a post-routing optimization pass (the "further
// optimization opportunities" direction of §6): it sweeps the schedule
// front to back and hoists braids into earlier cycles whenever (a) the
// gate's per-qubit predecessors have already executed in a strictly
// earlier cycle, (b) neither qubit braids in the target cycle, and (c) a
// conflict-free path exists under the target cycle's occupancy. Layers
// emptied by hoisting are dropped, so latency never increases. Schedules
// containing inserted SWAP braids are returned unchanged — hoisting
// across layout changes would need full replay machinery for marginal
// gain on a baseline-only feature.
//
// Schedules produced by this package's own router with the A* finder are
// already locally tight (a deferred gate failed against a subset of the
// final occupancy, so it fails against the whole of it) — compaction is
// a no-op there by construction. It earns its keep on schedules from
// weaker finders (the two-bend L-shape router leaves ~15–20 % recoverable
// latency on dense circuits) and on externally produced or JSON-imported
// schedules.
//
// The result is a new schedule; the input is not modified.
func CompactSchedule(s *sched.Schedule, c *circuit.Circuit, finder route.Finder) *sched.Schedule {
	if s.InsertedBraids() > 0 {
		return s
	}
	if finder == nil {
		finder = &route.AStar{}
	}
	// pred holds each two-qubit gate's predecessor on either operand (-1
	// none): the last two-qubit gate on that qubit before it.
	pred := make([][2]int, len(c.Gates))
	last := make([]int, c.NumQubits)
	for q := range last {
		last[q] = -1
	}
	for gi, g := range c.Gates {
		if g.TwoQubit() {
			pred[gi] = [2]int{last[g.Q0], last[g.Q1]}
			last[g.Q0], last[g.Q1] = gi, gi
		}
	}

	// Working copy of the layers, and each gate's current layer (-1 for
	// a gate no braid executes).
	layers := make([]sched.Layer, len(s.Layers))
	layerOf := make([]int, len(c.Gates))
	for gi := range layerOf {
		layerOf[gi] = -1
	}
	for i, l := range s.Layers {
		layers[i] = append(sched.Layer(nil), l...)
		for _, b := range l {
			layerOf[b.Gate] = i
		}
	}

	// A target layer's occupancy is exactly its braids' paths, so one
	// occupancy is refilled with them before each probe.
	occ := route.NewOccupancy(s.Grid)
	for li := 1; li < len(layers); li++ {
		kept := layers[li][:0]
		for _, b := range layers[li] {
			g := c.Gates[b.Gate]
			moved := false
			for t := hoistTarget(pred[b.Gate], layerOf, li); t < li; t++ {
				if braidsQubit(layers[t], c, g.Q0, g.Q1) {
					continue
				}
				occ.Reset()
				for _, o := range layers[t] {
					occ.Add(o.Path)
				}
				// nil buf: the hoisted path is retained in the layer, so it
				// must own its storage.
				p, ok := finder.Find(s.Grid, occ, b.CtlTile, b.TgtTile, nil)
				if !ok {
					continue
				}
				nb := b
				nb.Path = p
				layers[t] = append(layers[t], nb)
				layerOf[b.Gate] = t
				moved = true
				break
			}
			if !moved {
				kept = append(kept, b)
			}
		}
		layers[li] = kept
	}

	out := &sched.Schedule{Grid: s.Grid, Initial: s.Initial.Clone()}
	for _, l := range layers {
		if len(l) > 0 {
			out.Layers = append(out.Layers, l)
		}
	}
	// Dropping empty layers renumbers cycles; per-qubit order is
	// preserved because relative layer order never changes.
	return out
}

// hoistTarget returns the earliest layer a gate with per-operand
// predecessors pred may legally move to from layer cur: one past the
// latest layer among its predecessors.
func hoistTarget(pred [2]int, layerOf []int, cur int) int {
	earliest := 0
	for _, p := range pred {
		if p >= 0 && layerOf[p]+1 > earliest {
			earliest = layerOf[p] + 1
		}
	}
	return min(earliest, cur)
}

// braidsQubit reports whether a braid of layer l executes a gate on
// qubit q0 or q1.
func braidsQubit(l sched.Layer, c *circuit.Circuit, q0, q1 int) bool {
	for _, b := range l {
		g := c.Gates[b.Gate]
		if g.Q0 == q0 || g.Q0 == q1 || g.Q1 == q0 || g.Q1 == q1 {
			return true
		}
	}
	return false
}
