package route

// Differential tests for the word-packed fast paths added for the
// parallel router: every probe must answer bit-identically to the scalar
// walk it replaces, under random occupancy, random defects, and lattices
// wide enough that vertex rows straddle 64-bit word boundaries.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hilight/internal/grid"
)

// randomGrid builds a randomLattice and scatters random braid paths
// into a fresh occupancy. Each walk starts on a live vertex and steps
// only across routable channels (VertexNeighbors lists no other, and
// none touches a dead vertex), as a braid does.
func randomGrid(rng *rand.Rand) (*grid.Grid, *Occupancy) {
	g := randomLattice(rng)
	occ := NewOccupancy(g)
	var nbr []int
	for i := 0; i < rng.Intn(12); i++ {
		v := rng.Intn(g.NumVertices())
		if g.VertexDefective(v) {
			continue
		}
		p := Path{v}
		for j := 0; j < 1+rng.Intn(8); j++ {
			nbr = g.VertexNeighbors(v, nbr[:0])
			if len(nbr) == 0 {
				break
			}
			v = nbr[rng.Intn(len(nbr))]
			p = append(p, v)
		}
		occ.Add(p)
	}
	return g, occ
}

// randomLattice builds a grid, sometimes wide enough that its vertex
// rows straddle 64-bit words, with random defects.
func randomLattice(rng *rand.Rand) *grid.Grid {
	var g *grid.Grid
	if rng.Intn(3) == 0 {
		g = grid.New(64+rng.Intn(16), 2+rng.Intn(3)) // vw > 64: rows straddle words
	} else {
		g = grid.New(2+rng.Intn(9), 2+rng.Intn(9))
	}
	addRandomDefects(rng, g)
	return g
}

// addRandomDefects kills about 5% of g's vertices and breaks about 5% of
// its routable channels.
func addRandomDefects(rng *rand.Rand, g *grid.Grid) {
	d := &grid.DefectMap{}
	for v := 0; v < g.NumVertices(); v++ {
		if rng.Intn(20) == 0 {
			d.Vertices = append(d.Vertices, v)
		}
	}
	var nbr []int
	for v := 0; v < g.NumVertices(); v++ {
		nbr = g.VertexNeighbors(v, nbr[:0])
		for _, u := range nbr {
			if v < u && rng.Intn(20) == 0 {
				d.Channels = append(d.Channels, [2]int{v, u})
			}
		}
	}
	if err := g.ApplyDefects(d); err != nil {
		panic(err)
	}
}

// scalarRunFree is the reference HRunFree: the vertex-by-vertex walk the
// word probe replaces.
func scalarRunFree(g *grid.Grid, occ *Occupancy, y, x0, x1 int) bool {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	for x := x0; x <= x1; x++ {
		v := g.VertexID(x, y)
		if occ.VertexUsed(v) {
			return false
		}
		if x < x1 {
			u := g.VertexID(x+1, y)
			if !g.EdgeRoutable(v, u) || occ.EdgeUsed(g, v, u) {
				return false
			}
		}
	}
	return true
}

func TestHRunFreeMatchesScalarWalk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, occ := randomGrid(rng)
		for trial := 0; trial < 200; trial++ {
			y := rng.Intn(g.VH())
			x0, x1 := rng.Intn(g.VW()), rng.Intn(g.VW())
			if occ.HRunFree(y, x0, x1) != scalarRunFree(g, occ, y, x0, x1) {
				t.Logf("seed %d: HRunFree(%d, %d, %d) diverged on %dx%d", seed, y, x0, x1, g.W, g.H)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestChannelBlockedMatchesScalar pins the single-bit channel probes the
// A* expansion uses against the scalar InBounds/EdgeRoutable/EdgeUsed
// triple.
func TestChannelBlockedMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, occ := randomGrid(rng)
		for v := 0; v < g.NumVertices(); v++ {
			x, y := g.VertexXY(v)
			eastOpen := x+1 < g.VW() &&
				g.EdgeRoutable(v, g.VertexID(x+1, y)) && !occ.EdgeUsed(g, v, g.VertexID(x+1, y))
			if occ.EastBlocked(v) == eastOpen {
				t.Logf("seed %d: EastBlocked(%d) diverged", seed, v)
				return false
			}
			southOpen := y+1 < g.VH() &&
				g.EdgeRoutable(v, g.VertexID(x, y+1)) && !occ.EdgeUsed(g, v, g.VertexID(x, y+1))
			if occ.SouthBlocked(v) == southOpen {
				t.Logf("seed %d: SouthBlocked(%d) diverged", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGatherBits(t *testing.T) {
	words := []uint64{0xDEADBEEFCAFEBABE, 0x0123456789ABCDEF, ^uint64(0)}
	bitAt := func(i int) uint64 {
		if i>>6 >= len(words) {
			return 0
		}
		return words[i>>6] >> (uint(i) & 63) & 1
	}
	for _, start := range []int{
		0,   // aligned first word
		3,   // unaligned, straddling into the second word
		60,  // straddles the first boundary
		63,  // minimal straddle
		64,  // aligned second word
		100, // unaligned straddle into the last word
		128, // aligned last word: no word after it
		150, // unaligned in the last word: high bits read past the end
		191, // the last bit alone
		192, // wholly past the end
	} {
		got := gatherBits(words, start)
		for i := 0; i < 64; i++ {
			if got>>uint(i)&1 != bitAt(start+i) {
				t.Errorf("gatherBits(%d): bit %d wrong", start, i)
			}
		}
	}
}

// dfsLabels is the brute-force reference labeling: flood fill over free
// vertices through channels that are routable and unoccupied.
func dfsLabels(g *grid.Grid, occ *Occupancy) []int {
	labels := make([]int, g.NumVertices())
	for v := range labels {
		labels[v] = -1
	}
	next := 0
	var nbr []int
	for s := 0; s < g.NumVertices(); s++ {
		if occ.VertexUsed(s) || labels[s] >= 0 {
			continue
		}
		next++
		stack := []int{s}
		labels[s] = next
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbr = g.VertexNeighbors(v, nbr[:0])
			for _, u := range nbr {
				if labels[u] >= 0 || occ.VertexUsed(u) || occ.EdgeUsed(g, v, u) {
					continue
				}
				labels[u] = next
				stack = append(stack, u)
			}
		}
	}
	return labels
}

func TestComponentsMatchFloodFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, occ := randomGrid(rng)
		var cc Components
		cc.Compute(g, occ)
		ref := dfsLabels(g, occ)
		for u := 0; u < g.NumVertices(); u++ {
			for trial := 0; trial < 8; trial++ {
				v := rng.Intn(g.NumVertices())
				want := ref[u] > 0 && ref[u] == ref[v]
				if cc.Connected(u, v) != want {
					t.Logf("seed %d: Connected(%d, %d) = %v, flood fill says %v", seed, u, v, !want, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWindowedAgreesWithAStar pins the finder-identity contract the
// parallel pass relies on: with or without the component and congestion
// hooks, Windowed accepts exactly the tile pairs AStar accepts, and
// every returned path validates against the grid and occupancy. Without
// a congestion field the path length matches AStar's exactly; with one,
// equal-distance corner pairs may be reordered and a different pair's
// (per-pair shortest) detour may win, so only acceptance is compared.
func TestWindowedAgreesWithAStar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, occ := randomGrid(rng)
		var astar AStar
		var comp Components
		comp.Compute(g, occ)
		cong := make([]int32, g.NumVertices())
		for i := range cong {
			cong[i] = int32(rng.Intn(5))
		}
		variants := []*Windowed{
			{},                        // bare: pure A* semantics
			{Comp: &comp},             // component pruning
			{Comp: &comp, Cong: cong}, // pruning + congestion ties
			{Cong: cong},              // congestion ties only
		}
		for trial := 0; trial < 40; trial++ {
			a, b := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
			ap, aok := astar.Find(g, occ, a, b, nil)
			for _, w := range variants {
				wp, wok := w.Find(g, occ, a, b, nil)
				if wok != aok {
					t.Logf("seed %d: tiles (%d,%d): windowed ok=%v, astar ok=%v", seed, a, b, wok, aok)
					return false
				}
				if !wok {
					continue
				}
				if w.Cong == nil && len(wp) != len(ap) {
					t.Logf("seed %d: tiles (%d,%d): windowed len %d, astar len %d", seed, a, b, len(wp), len(ap))
					return false
				}
				if err := wp.Validate(g); err != nil {
					t.Logf("seed %d: invalid windowed path: %v", seed, err)
					return false
				}
				if occ.Conflicts(wp) {
					t.Logf("seed %d: windowed path conflicts with occupancy", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
