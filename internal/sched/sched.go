// Package sched defines the output artifact of the mapping flow: a
// braiding schedule — cycles ("layers") of vertex- and channel-disjoint
// braiding paths — plus the validator that replays a schedule against the
// circuit and grid to prove it is executable, and the latency /
// path-length accounting the paper's metrics are computed from.
package sched

import (
	"fmt"

	"hilight/internal/circuit"
	"hilight/internal/grid"
	"hilight/internal/route"
)

// Braid is one scheduled braiding operation. Gate is the index of the
// two-qubit gate in the source circuit, or -1 for a SWAP braid inserted by
// a layout-adjusting router (the AutoBraid baseline). CtlTile and TgtTile
// record where the operands lived when the braid executed. SwapTiles, when
// true, means the braid completes an inserted SWAP: after this cycle the
// two tiles exchange occupants.
type Braid struct {
	Gate      int
	CtlTile   int
	TgtTile   int
	Path      route.Path
	SwapTiles bool
}

// Layer is one braiding cycle: a set of concurrently executing braids.
type Layer []Braid

// Schedule is the complete mapping result for a circuit on a grid.
type Schedule struct {
	Grid    *grid.Grid
	Initial *grid.Layout // layout before the first cycle
	Layers  []Layer
}

// Latency returns the number of braiding cycles — the paper's latency
// metric (single-qubit gates are free).
func (s *Schedule) Latency() int { return len(s.Layers) }

// TotalPathLength returns the summed braiding path length over all
// braids — the numerator of the ResUtil metric (Eq. 1). Length counts the
// routing vertices a braid occupies (channels + 1): even a shared-corner
// braid between adjacent tiles consumes one lattice resource, which is
// what makes the paper's ResUtil non-zero on chain workloads like the 1D
// Ising model.
func (s *Schedule) TotalPathLength() int {
	total := 0
	for _, layer := range s.Layers {
		for _, b := range layer {
			total += len(b.Path)
		}
	}
	return total
}

// ResUtil returns the paper's resource-utilization metric (Eq. 1): the
// total braiding path length divided by the grid's tiles times the
// latency. A schedule without braiding cycles has ResUtil 0.
func (s *Schedule) ResUtil() float64 {
	latency := s.Latency()
	if latency == 0 {
		return 0
	}
	return float64(s.TotalPathLength()) / (float64(s.Grid.Tiles()) * float64(latency))
}

// BraidCount returns the number of braids including inserted SWAP braids.
func (s *Schedule) BraidCount() int {
	n := 0
	for _, layer := range s.Layers {
		n += len(layer)
	}
	return n
}

// InsertedBraids returns the number of braids that did not come from the
// source circuit (SWAP-gate overhead of layout-adjusting routers).
func (s *Schedule) InsertedBraids() int {
	n := 0
	for _, layer := range s.Layers {
		for _, b := range layer {
			if b.Gate < 0 {
				n++
			}
		}
	}
	return n
}

// CheckBraid is the one per-braid rule, checked against grid g alone:
// both tiles are in range and usable (not reserved, not defective), and
// the path is a simple lattice walk clear of g's dead vertices and
// closed channels, from a corner of CtlTile to a corner of TgtTile.
func CheckBraid(g *grid.Grid, b Braid) error {
	if n := g.Tiles(); b.CtlTile < 0 || b.CtlTile >= n || b.TgtTile < 0 || b.TgtTile >= n {
		return fmt.Errorf("tile %d or %d out of range for %d tiles", b.CtlTile, b.TgtTile, n)
	}
	if err := b.Path.Validate(g); err != nil {
		return err
	}
	if !g.Usable(b.CtlTile) || !g.Usable(b.TgtTile) {
		return fmt.Errorf("anchored on unusable (reserved/defective) tile %d or %d", b.CtlTile, b.TgtTile)
	}
	// Tile t's corners sit at x in {tx, tx+1} and y in {ty, ty+1}.
	corner := func(v, t int) bool {
		tx, ty := g.TileXY(t)
		x, y := g.VertexXY(v)
		return uint(x-tx) <= 1 && uint(y-ty) <= 1
	}
	if !corner(b.Path[0], b.CtlTile) {
		return fmt.Errorf("path start not a corner of tile %d", b.CtlTile)
	}
	if !corner(b.Path[len(b.Path)-1], b.TgtTile) {
		return fmt.Errorf("path end not a corner of tile %d", b.TgtTile)
	}
	return nil
}

// Validate replays the schedule against the circuit it claims to
// implement and returns the first inconsistency, or nil. It checks that:
//
//   - every braid passes CheckBraid on the schedule's grid;
//   - braids within a layer are vertex- and channel-disjoint;
//   - recorded tiles match the evolving layout (replaying SWAP braids);
//   - every two-qubit gate of the circuit is executed exactly once;
//   - gates sharing a qubit execute in program order, in distinct cycles.
//
// Its allocations do not grow with layers or gates: it sizes a few
// per-qubit, per-gate and per-grid arrays once.
func (s *Schedule) Validate(c *circuit.Circuit) error {
	if s.Initial == nil {
		return fmt.Errorf("sched: schedule has no initial layout")
	}
	if err := s.Initial.Validate(s.Grid); err != nil {
		return fmt.Errorf("sched: initial layout: %w", err)
	}
	if len(s.Initial.QubitTile) < c.NumQubits {
		return fmt.Errorf("sched: initial layout places %d qubits, circuit has %d", len(s.Initial.QubitTile), c.NumQubits)
	}
	layout := s.Initial.Clone()

	// Program order: each qubit's two-qubit gates in circuit order, and
	// a cursor per qubit at the next one that must execute.
	var ql circuit.QubitLists
	ql.Fill(c)
	nextPos := make([]int, c.NumQubits)
	// busy[q] is 1 + the index of the last layer in which qubit q
	// braided, so a qubit braids at most once per layer without a
	// per-layer set.
	busy := make([]int, c.NumQubits)
	executed := make([]uint64, (len(c.Gates)+63)/64)

	occ := route.NewOccupancy(s.Grid)
	for li, layer := range s.Layers {
		occ.Reset()
		stamp := li + 1
		for bi, b := range layer {
			if err := CheckBraid(s.Grid, b); err != nil {
				return fmt.Errorf("sched: layer %d braid %d: %w", li, bi, err)
			}
			if !occ.TryAdd(b.Path) {
				return fmt.Errorf("sched: layer %d braid %d: path intersects another braid", li, bi)
			}
			if b.Gate < 0 {
				// An inserted SWAP braid: its path is checked, and a
				// final one moves the layout after the cycle.
				continue
			}
			if b.Gate >= len(c.Gates) || !c.Gates[b.Gate].TwoQubit() {
				return fmt.Errorf("sched: layer %d braid %d: gate %d is not a two-qubit gate", li, bi, b.Gate)
			}
			word, bit := b.Gate>>6, uint64(1)<<(uint(b.Gate)&63)
			if executed[word]&bit != 0 {
				return fmt.Errorf("sched: gate %d executed twice", b.Gate)
			}
			g := c.Gates[b.Gate]
			if busy[g.Q0] == stamp || busy[g.Q1] == stamp {
				return fmt.Errorf("sched: layer %d: qubit of gate %d braids twice in one cycle", li, b.Gate)
			}
			busy[g.Q0], busy[g.Q1] = stamp, stamp
			for _, q := range [2]int{g.Q0, g.Q1} {
				lst := ql.Lists[q]
				if nextPos[q] >= len(lst) || lst[nextPos[q]] != b.Gate {
					return fmt.Errorf("sched: layer %d: gate %d out of program order on qubit %d", li, b.Gate, q)
				}
			}
			nextPos[g.Q0]++
			nextPos[g.Q1]++
			if layout.QubitTile[g.Q0] != b.CtlTile || layout.QubitTile[g.Q1] != b.TgtTile {
				return fmt.Errorf("sched: layer %d gate %d: recorded tiles (%d,%d) but layout has (%d,%d)",
					li, b.Gate, b.CtlTile, b.TgtTile, layout.QubitTile[g.Q0], layout.QubitTile[g.Q1])
			}
			executed[word] |= bit
		}
		// Apply layout changes after the whole cycle.
		for _, b := range layer {
			if b.Gate < 0 && b.SwapTiles {
				layout.Swap(b.CtlTile, b.TgtTile)
			}
		}
	}
	for i, g := range c.Gates {
		if g.TwoQubit() && executed[i>>6]&(1<<(uint(i)&63)) == 0 {
			return fmt.Errorf("sched: gate %d never executed", i)
		}
	}
	return nil
}
