package place

import (
	"math/rand"

	"hilight/internal/circuit"
	"hilight/internal/graph"
	"hilight/internal/grid"
)

// GM is the graph-inspired placement heuristic of Park et al. (DAC 2022)
// as the paper evaluates it: it orders qubits by a weighted breadth-first
// traversal of the circGraph from its heaviest qubit, and places each
// qubit by exhaustively scoring every free tile against all
// already-placed partners — over several restarts, keeping the layout
// with the lowest Score. It reads the same interaction graph as Alg. 1,
// so what Fig. 8a's GM bar ablates is this BFS-guided exhaustive
// embedding, against Alg. 1's degree queue and cardinal fan-out. The
// full-grid candidate scans buy a layout close to Proximity's at a
// higher runtime.
//
// Restarts defaults to 4 when zero. Rng seeds restart perturbation and
// must be non-nil.
type GM struct {
	Rng      *rand.Rand
	Restarts int
}

// Name implements Method.
func (GM) Name() string { return "gm" }

// Place implements Method.
func (m GM) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	restarts := m.Restarts
	if restarts == 0 {
		restarts = 4
	}
	ig := circuit.InteractionGraph(c)
	free := freeTiles(g)
	var best *grid.Layout
	bestCost := 1 << 62
	for r := 0; r < restarts; r++ {
		start := ig.MaxWeightVertex()
		if r > 0 && c.NumQubits > 1 {
			start = m.Rng.Intn(c.NumQubits)
		}
		l := m.placeOnce(c, g, ig, free, start)
		cost := Score(l, ig, g)
		if cost < bestCost {
			best, bestCost = l, cost
		}
	}
	return best
}

// placeOnce performs one BFS-guided greedy embedding starting from qubit
// start.
func (m GM) placeOnce(c *circuit.Circuit, g *grid.Grid, ig *graph.Sparse, free []int, start int) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	center := g.Center()
	order := ig.BFSOrder(start)
	for i, q := range order {
		if i == 0 {
			l.Assign(q, center, g)
			continue
		}
		// Exhaustive candidate scan: score every free tile by the summed
		// weighted distance to all placed partners of q.
		nbrs, wts := ig.Neighbors(q), ig.Weights(q)
		bestTile, bestCost := -1, 1<<62
		for _, t := range free {
			if l.TileQubit[t] != -1 {
				continue
			}
			cost := 0
			for k, nb := range nbrs {
				if pt := l.QubitTile[nb]; pt != -1 {
					cost += int(wts[k]) * g.Dist(t, pt)
				}
			}
			// Light tie-break toward the center keeps disconnected
			// components compact.
			cost = cost*1024 + g.Dist(t, center)
			if cost < bestCost {
				bestTile, bestCost = t, cost
			}
		}
		l.Assign(q, bestTile, g)
	}
	return l
}

// GMWP combines GM with the paper's pattern matching: when a pattern
// matches, use it; otherwise run the full GM embedding (the "GMWP" bar of
// Fig. 8a).
type GMWP struct {
	Rng *rand.Rand
}

// Name implements Method.
func (GMWP) Name() string { return "gmwp" }

// Place implements Method.
func (m GMWP) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	if l, ok := (Pattern{Rng: m.Rng}).Match(c, g); ok {
		return l
	}
	return GM{Rng: m.Rng}.Place(c, g)
}
