package place

import (
	"hilight/internal/circuit"
	"hilight/internal/graph"
	"hilight/internal/grid"
)

// Refine improves a complete layout by local search: it repeatedly picks
// the qubit contributing the most weighted distance to its interaction
// partners and tries moving it to every free tile and swapping it with
// every qubit in its neighborhood, keeping the best strict improvement.
// The loop stops after maxRounds rounds or at a local optimum, so the
// result never scores worse than the input. It is an optional
// post-placement pass (the paper's future-work "further optimization
// opportunities"); the SWAP-less property is preserved because the
// refinement happens before routing starts.
func Refine(l *grid.Layout, c *circuit.Circuit, g *grid.Grid, maxRounds int) *grid.Layout {
	m := circuit.InteractionGraph(c)
	out := l.Clone()
	if maxRounds <= 0 {
		maxRounds = 2 * c.NumQubits
	}

	// qubitCost is the weighted distance from q to all its partners.
	qubitCost := func(lay *grid.Layout, q, tile int) int {
		cost := 0
		wts := m.Weights(q)
		for k, nb := range m.Neighbors(q) {
			cost += int(wts[k]) * g.Dist(tile, lay.QubitTile[nb])
		}
		return cost
	}

	for round := 0; round < maxRounds; round++ {
		// Find the worst-placed qubit.
		worst, worstCost := -1, 0
		for q := 0; q < c.NumQubits; q++ {
			if cost := qubitCost(out, q, out.QubitTile[q]); cost > worstCost {
				worst, worstCost = q, cost
			}
		}
		if worst == -1 {
			break // no interactions at all
		}
		from := out.QubitTile[worst]
		bestDelta := 0
		bestTile := -1
		for t := 0; t < g.Tiles(); t++ {
			if t == from || !g.Usable(t) {
				continue
			}
			// Evaluate the move/swap by tentatively applying it, so every
			// partner distance — including the mutual edge when the target
			// tile holds an interaction partner — is measured against the
			// true post-move positions. Both sides of the delta count the
			// mutual edge twice (once per endpoint), so it cancels.
			other := out.TileQubit[t]
			before := worstCost
			if other != -1 {
				before += qubitCost(out, other, t)
			}
			out.Swap(from, t)
			after := qubitCost(out, worst, out.QubitTile[worst])
			if other != -1 {
				after += qubitCost(out, other, out.QubitTile[other])
			}
			out.Swap(from, t) // undo
			if delta := after - before; delta < bestDelta {
				bestDelta, bestTile = delta, t
			}
		}
		if bestTile == -1 {
			break // local optimum
		}
		out.Swap(from, bestTile)
	}
	return out
}

// Score returns the total weighted interaction distance of a layout on
// the circGraph m — the objective Refine minimizes and GM ranks its
// restarts by. It walks every edge once, from its lower end's row.
func Score(l *grid.Layout, m *graph.Sparse, g *grid.Grid) int {
	total := 0
	for q := 0; q < m.N; q++ {
		wts := m.Weights(q)
		for k, nb := range m.Neighbors(q) {
			if int(nb) > q {
				total += int(wts[k]) * g.Dist(l.QubitTile[q], l.QubitTile[nb])
			}
		}
	}
	return total
}
