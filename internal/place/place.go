// Package place implements the initial-placement methods the paper
// compares in Fig. 8a:
//
//   - Identity — program qubit i on the i-th free tile.
//   - Random — a uniformly random assignment (the paper averages 100).
//   - GM — the graph-inspired NISQ heuristic of Park et al. (DAC 2022):
//     a BFS-guided embedding with full-grid candidate scans, which buys a
//     decent layout at a steep runtime cost.
//   - Proximity — HiLight's Alg. 1: a degree-ordered queue, center
//     seeding, and cardinal fan-out of each qubit's heaviest partners.
//     SWAP-less: routing never changes it.
//   - Pattern — the paper's pattern matching: a linear (snake) layout for
//     chain-shaped interaction graphs, a random layout for near-complete
//     (QFT-like) graphs, and no match otherwise.
//   - HiLight — Pattern with Proximity fallback, the framework default.
package place

import (
	"math/rand"

	"hilight/internal/circuit"
	"hilight/internal/grid"
)

// Method computes an initial layout of the circuit's program qubits on g.
// Implementations must return a complete layout touching only unreserved
// tiles.
type Method interface {
	Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout
	Name() string
}

// freeTiles returns the usable (unreserved, non-defective) tiles of g in
// index order.
func freeTiles(g *grid.Grid) []int {
	var out []int
	for t := 0; t < g.Tiles(); t++ {
		if g.Usable(t) {
			out = append(out, t)
		}
	}
	return out
}

// Identity assigns program qubit i to the i-th free tile.
type Identity struct{}

// Name implements Method.
func (Identity) Name() string { return "identity" }

// Place implements Method.
func (Identity) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	free := freeTiles(g)
	for q := 0; q < c.NumQubits; q++ {
		l.Assign(q, free[q], g)
	}
	return l
}

// Random assigns program qubits to a random subset of free tiles. Rng
// must be non-nil.
type Random struct {
	Rng *rand.Rand
}

// Name implements Method.
func (Random) Name() string { return "random" }

// Place implements Method.
func (r Random) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	free := freeTiles(g)
	r.Rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for q := 0; q < c.NumQubits; q++ {
		l.Assign(q, free[q], g)
	}
	return l
}

// Proximity is HiLight's qubit-proximity placement (Alg. 1).
type Proximity struct{}

// Name implements Method.
func (Proximity) Name() string { return "proximity" }

// Place implements Method.
func (Proximity) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	m := circuit.InteractionGraph(c)
	queue := m.QueueByDegree()

	// FindClosestUnmappedLoc: nearest usable, unoccupied tile to ref.
	closestFree := func(ref int) int {
		best, bestD := -1, 1<<30
		for t := 0; t < g.Tiles(); t++ {
			if !g.Usable(t) || l.TileQubit[t] != -1 {
				continue
			}
			if d := g.Dist(ref, t); d < bestD {
				best, bestD = t, d
			}
		}
		return best
	}

	for i, q := range queue {
		if l.Complete() {
			break
		}
		neighbors := m.Neighbors(q)
		if l.QubitTile[q] == -1 {
			switch {
			case i == 0:
				l.Assign(q, g.Center(), g)
			default:
				// refLoc: the location of the first already-mapped
				// neighbor (heaviest first); fall back to the grid center
				// for disconnected qubits.
				ref := -1
				for _, nb := range neighbors {
					if l.QubitTile[nb] != -1 {
						ref = l.QubitTile[nb]
						break
					}
				}
				if ref == -1 {
					ref = g.Center()
				}
				l.Assign(q, closestFree(ref), g)
			}
		}
		// Fan the unmapped heavy partners out into the free cardinal
		// positions around π[q] (Alg. 1 lines 12–15).
		var adjQubits []int
		for _, nb := range neighbors {
			if l.QubitTile[nb] == -1 {
				adjQubits = append(adjQubits, nb)
			}
		}
		var adjLocs []int
		for _, t := range g.CardinalNeighbors(l.QubitTile[q]) {
			if l.TileQubit[t] == -1 {
				adjLocs = append(adjLocs, t)
			}
		}
		n := len(adjQubits)
		if len(adjLocs) < n {
			n = len(adjLocs)
		}
		for k := 0; k < n; k++ {
			l.Assign(adjQubits[k], adjLocs[k], g)
		}
	}
	return l
}

// Pattern implements the paper's pattern matching. Match returns the
// layout and true when the circuit fits a known pattern; Place falls back
// to Proximity so Pattern alone still satisfies Method.
//
// DenseThreshold is the interaction-graph density at or above which the
// random layout is chosen (QFT-like dynamic interactions); the paper's
// examples are complete graphs (density 1), and 0.8 keeps near-complete
// variants matched.
type Pattern struct {
	Rng            *rand.Rand
	DenseThreshold float64
}

// Name implements Method.
func (Pattern) Name() string { return "pattern" }

// Match attempts pattern detection and returns (layout, true) on success.
func (p Pattern) Match(c *circuit.Circuit, g *grid.Grid) (*grid.Layout, bool) {
	m := circuit.InteractionGraph(c)
	if ok, chain := m.IsLinearChain(); ok {
		return p.linearLayout(chain, c, g), true
	}
	thresh := p.DenseThreshold
	if thresh == 0 {
		thresh = 0.8
	}
	if m.Density() >= thresh && c.NumQubits >= 4 {
		rng := p.Rng
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		return Random{Rng: rng}.Place(c, g), true
	}
	return nil, false
}

// Place implements Method: Match with Proximity fallback.
func (p Pattern) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	if l, ok := p.Match(c, g); ok {
		return l
	}
	return Proximity{}.Place(c, g)
}

// linearLayout maps the chain order along a boustrophedon walk of the
// free tiles so consecutive chain qubits land on adjacent tiles.
func (Pattern) linearLayout(chain []int, c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	var snake []int
	for y := 0; y < g.H; y++ {
		if y%2 == 0 {
			for x := 0; x < g.W; x++ {
				if t := g.TileAt(x, y); g.Usable(t) {
					snake = append(snake, t)
				}
			}
		} else {
			for x := g.W - 1; x >= 0; x-- {
				if t := g.TileAt(x, y); g.Usable(t) {
					snake = append(snake, t)
				}
			}
		}
	}
	for i, q := range chain {
		l.Assign(q, snake[i], g)
	}
	return l
}

// HiLight is the framework's default initial placement: pattern matching
// first, qubit-proximity placement otherwise (§3.1).
type HiLight struct {
	Rng *rand.Rand
}

// Name implements Method.
func (HiLight) Name() string { return "hilight" }

// Place implements Method.
func (h HiLight) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	return Pattern{Rng: h.Rng}.Place(c, g)
}
