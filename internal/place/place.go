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
	"hilight/internal/graph"
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
	return proximity(circuit.InteractionGraph(c), c, g)
}

// proximity is Alg. 1 on the circGraph m of c.
func proximity(m *graph.Sparse, c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	center := g.Center()
	free := newRingSearch(g, l)
	placed := 0
	for i, q := range m.QueueByDegree() {
		if placed == c.NumQubits {
			break
		}
		neighbors := m.Neighbors(q)
		if l.QubitTile[q] == -1 {
			tile := center
			if i > 0 {
				// refLoc: the location of the first already-mapped
				// neighbor (heaviest first); the grid center for
				// disconnected qubits.
				ref := center
				for _, nb := range neighbors {
					if t := l.QubitTile[nb]; t != -1 {
						ref = t
						break
					}
				}
				tile = free.closest(ref)
			}
			l.Assign(q, tile, g)
			placed++
		}
		// Fan the unmapped heavy partners out into the free cardinal
		// positions around π[q] (Alg. 1 lines 12–15), heaviest partner
		// first, in N, E, S, W order.
		adj, n := g.CardinalNeighbors(l.QubitTile[q])
		k := 0
		for _, nb := range neighbors {
			if l.QubitTile[nb] != -1 {
				continue
			}
			for k < n && l.TileQubit[adj[k]] != -1 {
				k++
			}
			if k == n {
				break
			}
			l.Assign(int(nb), adj[k], g)
			placed++
			k++
		}
	}
	return l
}

// ringSearch is FindClosestUnmappedLoc of Alg. 1: the usable tile no
// qubit holds that lies closest to a reference tile, least Manhattan
// distance first, then least index — the tile a scan of every tile
// picks. It walks rings of growing distance around the reference, each
// ring in ascending tile index, and each reference's search resumes at
// the tile its previous search returned: tiles only fill during a
// placement, so every tile a search passed over is still taken. A
// reference's searches together visit each tile once, not once per
// qubit placed.
type ringSearch struct {
	g    *grid.Grid
	l    *grid.Layout
	last []int32 // per reference tile, 1 + the tile its last search returned; 0 before its first
}

func newRingSearch(g *grid.Grid, l *grid.Layout) *ringSearch {
	return &ringSearch{g: g, l: l, last: make([]int32, g.Tiles())}
}

// closest returns the closest free usable tile to ref, or -1 when every
// usable tile is taken.
func (r *ringSearch) closest(ref int) int {
	g := r.g
	rx, ry := g.TileXY(ref)
	// The search position: ring d, row y, and side s of the row's two
	// ring tiles (0 west of ref, 1 east).
	d, y, s := 0, ry, 0
	if t := int(r.last[ref]) - 1; t >= 0 {
		x, ty := g.TileXY(t)
		d, y = g.Dist(ref, t), ty
		if x > rx {
			s = 1
		}
	}
	for maxD := g.W + g.H - 2; d <= maxD; d, y, s = d+1, max(ry-d-1, 0), 0 {
		for ; y <= min(ry+d, g.H-1); y, s = y+1, 0 {
			dx := d - max(y-ry, ry-y)
			for ; s < 2; s++ {
				x := rx - dx
				if s == 1 {
					if dx == 0 {
						break // the ring's one tile in this row
					}
					x = rx + dx
				}
				if x < 0 || x >= g.W {
					continue
				}
				if t := g.TileAt(x, y); g.Usable(t) && r.l.TileQubit[t] == -1 {
					r.last[ref] = int32(t + 1)
					return t
				}
			}
		}
	}
	return -1
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
	return p.match(circuit.InteractionGraph(c), c, g)
}

// match is Match on the circGraph m of c.
func (p Pattern) match(m *graph.Sparse, c *circuit.Circuit, g *grid.Grid) (*grid.Layout, bool) {
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

// Place implements Method: Match with Proximity fallback, both on one
// circGraph.
func (p Pattern) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	m := circuit.InteractionGraph(c)
	if l, ok := p.match(m, c, g); ok {
		return l
	}
	return proximity(m, c, g)
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
