package core

import (
	"fmt"
	"math/rand"
	"slices"

	"hilight/internal/circuit"
	"hilight/internal/grid"
	"hilight/internal/order"
	"hilight/internal/sched"
)

// scanReady is the ready set as a scan over every qubit finds it: each
// qubit's front gate, counted from its control side, when it is also its
// target's front gate, with tiles read from the live layout. The router
// keeps the set as a bitmask that commits update; this is its oracle.
func scanReady(r *router) []order.Ready {
	var ready []order.Ready
	for q := 0; q < r.c.NumQubits; q++ {
		lst := r.ql.Lists[q]
		if r.cursor[q] >= len(lst) {
			continue
		}
		gi := lst[r.cursor[q]]
		gate := r.c.Gates[gi]
		if q != gate.Q0 {
			continue
		}
		tq := gate.Q1
		if r.cursor[tq] < len(r.ql.Lists[tq]) && r.ql.Lists[tq][r.cursor[tq]] == gi {
			ready = append(ready, order.Ready{
				Gate:    gi,
				CtlTile: r.layout.QubitTile[gate.Q0],
				TgtTile: r.layout.QubitTile[gate.Q1],
				Height:  r.heights[gi],
			})
		}
	}
	return ready
}

// readyCheck wraps a cycle's ordering: the router hands it every cycle's
// ready slice (its threshold is lowered to -1), it compares the slice
// with scanReady, and it applies the wrapped strategy above the real
// threshold, so the route emits the schedule it would without the check.
type readyCheck struct {
	r         *router
	inner     order.Strategy
	threshold int
	cycles    int
	err       error
}

func (c *readyCheck) Name() string { return c.inner.Name() }

func (c *readyCheck) Order(ready []order.Ready, g *grid.Grid) []order.Ready {
	if want := scanReady(c.r); c.err == nil && !slices.Equal(ready, want) {
		c.err = fmt.Errorf("check %d: ready set %v, scan finds %v", c.cycles, ready, want)
	}
	c.cycles++
	if len(ready) > c.threshold {
		return c.inner.Order(ready, g)
	}
	return ready
}

// RouteCheckingReady routes the working circuit c on g under sp's
// components (seed 1), from warm's initial layout and the parent layers
// it replays when warm is set and from sp's placement otherwise, and
// holds the ready slice of every routed cycle to the scan of every
// qubit. It returns the schedule, which must validate, and how many
// cycles it checked.
func RouteCheckingReady(c *circuit.Circuit, g *grid.Grid, sp Spec, warm *WarmStart) (*sched.Schedule, int, error) {
	cfg, err := sp.components(rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, 0, err
	}
	var r router
	if sp.Speculative && parallelCompatible(cfg) {
		r.speculator = &speculator{}
	}
	layout := cfg.Placement.Place(c, g)
	if warm != nil {
		layout = warm.Initial.Clone()
		cfg.Warm = warm
	}
	chk := &readyCheck{r: &r, inner: cfg.Ordering, threshold: cfg.OrderingThreshold}
	cfg.Ordering, cfg.OrderingThreshold = chk, -1
	s, err := r.route(c, g, layout, cfg)
	if err == nil {
		err = chk.err
	}
	if err == nil {
		err = s.Validate(c)
	}
	return s, chk.cycles, err
}
