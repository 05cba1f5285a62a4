// Package autobraid re-implements the AutoBraid baseline (Hua et al.,
// MICRO 2021) the paper compares against, in the two configurations of
// Table 1:
//
//   - SP ("autobraid-sp") — only the stack-based path-finder: identity
//     placement, LLG gate ordering, stack-DFS braiding paths.
//   - Full ("autobraid-full") — adds the layout optimization: iterative
//     graph-partitioning initial placement plus SWAP-based layout
//     adjustment during routing. Inserted SWAPs are three braids between
//     adjacent tiles, which is exactly the gate overhead the paper's
//     SWAP-less placement avoids.
//
// Both variants run on HiLight's pass pipeline (internal/core) with
// AutoBraid's pieces plugged in, so latency/ResUtil accounting is
// identical across frameworks and only the algorithms differ. The
// package registers its components (the "autobraid-partition" placement
// and the "autobraid-swap" adjuster) and its method specs in core's
// static registries at init time; importing it — even blank — makes
// "autobraid-sp" and "autobraid-full" resolvable method names.
package autobraid

import (
	"math/rand"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/graph"
	"hilight/internal/grid"
	"hilight/internal/place"
)

func init() {
	core.RegisterPlacement("autobraid-partition", func(rng *rand.Rand) place.Method {
		return PartitionPlacement{Rng: rng}
	})
	core.RegisterAdjuster("autobraid-swap", func() core.LayoutAdjuster {
		return NewSwapAdjuster(0, 0)
	})
	core.RegisterMethod("autobraid-sp", core.Spec{
		Placement: "identity", Ordering: "llg", Finder: "stack-dfs",
	})
	core.RegisterMethod("autobraid-full", core.Spec{
		Placement: "autobraid-partition", Ordering: "llg", Finder: "stack-dfs",
		Adjuster: "autobraid-swap",
	})
}

// PartitionPlacement is AutoBraid's initial placement: recursively bisect
// the circuit interaction graph with a Kernighan–Lin cut while splitting
// the grid region in two, so frequently-interacting qubits land in the
// same region. Rng must be non-nil.
type PartitionPlacement struct {
	Rng *rand.Rand
}

// Name implements place.Method.
func (PartitionPlacement) Name() string { return "autobraid-partition" }

// region is a rectangle of tiles [x0,x1)×[y0,y1).
type region struct {
	x0, y0, x1, y1 int
}

// Place implements place.Method.
func (p PartitionPlacement) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	ig := circuit.InteractionGraph(c)
	l := grid.NewLayout(c.NumQubits, g)
	verts := make([]int, c.NumQubits)
	for i := range verts {
		verts[i] = i
	}
	p.embed(ig, g, l, verts, region{0, 0, g.W, g.H})
	return l
}

// capacity counts usable tiles in r.
func capacity(g *grid.Grid, r region) int {
	n := 0
	for y := r.y0; y < r.y1; y++ {
		for x := r.x0; x < r.x1; x++ {
			if g.Usable(g.TileAt(x, y)) {
				n++
			}
		}
	}
	return n
}

func (p PartitionPlacement) embed(ig *graph.Dense, g *grid.Grid, l *grid.Layout, verts []int, r region) {
	if len(verts) == 0 {
		return
	}
	if len(verts) == 1 || (r.x1-r.x0 <= 1 && r.y1-r.y0 <= 1) {
		// Assign remaining vertices to the free tiles of the region in
		// scan order (handles the degenerate 1×1 case and any imbalance).
		i := 0
		for y := r.y0; y < r.y1 && i < len(verts); y++ {
			for x := r.x0; x < r.x1 && i < len(verts); x++ {
				t := g.TileAt(x, y)
				if g.Usable(t) && l.TileQubit[t] == -1 {
					l.Assign(verts[i], t, g)
					i++
				}
			}
		}
		return
	}
	// Split the region along its longer side.
	var ra, rb region
	if r.x1-r.x0 >= r.y1-r.y0 {
		mid := (r.x0 + r.x1) / 2
		ra = region{r.x0, r.y0, mid, r.y1}
		rb = region{mid, r.y0, r.x1, r.y1}
	} else {
		mid := (r.y0 + r.y1) / 2
		ra = region{r.x0, r.y0, r.x1, mid}
		rb = region{r.x0, mid, r.x1, r.y1}
	}
	capA := capacity(g, ra)
	// Left part takes min(capA, len(verts)) vertices; KL keeps the cut
	// between the halves light.
	k := capA
	if k > len(verts) {
		k = len(verts)
	}
	left, right := ig.BisectK(verts, k, p.Rng)
	p.embed(ig, g, l, left, ra)
	p.embed(ig, g, l, right, rb)
}

// SwapAdjuster is AutoBraid's in-flight layout optimization: every Period
// cycles it looks at the pending two-qubit gates, finds the
// weight-by-distance heaviest pair, and proposes one adjacent SWAP that
// moves one endpoint a step closer. Each SWAP costs three braiding cycles
// on its tile pair — the overhead Table 1 charges the baseline for.
type SwapAdjuster struct {
	Period      int // cycles between proposals (default 4)
	MinDistance int // only consider pairs at least this far apart (default 3)
	lastCycle   int
}

// NewSwapAdjuster returns an adjuster with the given period and minimum
// distance; zero values select the defaults.
func NewSwapAdjuster(period, minDistance int) *SwapAdjuster {
	if period <= 0 {
		period = 4
	}
	if minDistance <= 0 {
		minDistance = 3
	}
	return &SwapAdjuster{Period: period, MinDistance: minDistance, lastCycle: -period}
}

// Propose implements core.LayoutAdjuster.
func (a *SwapAdjuster) Propose(st *core.RouterState) []core.TileSwap {
	if st.Cycle-a.lastCycle < a.Period {
		return nil
	}
	// Score pending pairs within a short lookahead window: weight of the
	// pair in the window × current tile distance.
	const window = 8
	type pair struct{ q, p int }
	weight := map[pair]int{}
	for q := range st.Pending {
		lst := st.Pending[q]
		if len(lst) > window {
			lst = lst[:window]
		}
		for _, gi := range lst {
			gate := st.Circuit.Gates[gi]
			if gate.Q0 != q {
				continue // count each gate once
			}
			weight[pair{gate.Q0, gate.Q1}]++
		}
	}
	bestScore := 0
	var bq, bp int
	for pr, w := range weight {
		d := st.Grid.Dist(st.Layout.QubitTile[pr.q], st.Layout.QubitTile[pr.p])
		if d < a.MinDistance {
			continue
		}
		// Ties break on (q, p) lexicographically — a total order, so the
		// winner is independent of map iteration order and schedules stay
		// deterministic at a fixed seed.
		if score := w * d; score > bestScore ||
			(score == bestScore && score > 0 &&
				(pr.q < bq || (pr.q == bq && pr.p < bp))) {
			bestScore, bq, bp = score, pr.q, pr.p
		}
	}
	if bestScore == 0 {
		return nil
	}
	// Move bq one step toward bp.
	from := st.Layout.QubitTile[bq]
	to := st.Layout.QubitTile[bp]
	best := -1
	bestD := st.Grid.Dist(from, to)
	for _, t := range st.Grid.CardinalNeighbors(from) {
		if d := st.Grid.Dist(t, to); d < bestD {
			best, bestD = t, d
		}
	}
	if best == -1 {
		return nil
	}
	a.lastCycle = st.Cycle
	return []core.TileSwap{{T1: from, T2: best}}
}
