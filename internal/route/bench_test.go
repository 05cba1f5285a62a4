package route

// Micro-benchmarks for the routing hot path. The acceptance bar for the
// allocation-free rewrite: BenchmarkFinderFind/astar-closest reports
// 0 allocs/op in steady state (after the warm-up call), which
// TestFinderFindZeroAllocs asserts. BENCH_route.json at the repo root
// keeps a frozen snapshot; run them with
//
//	go test ./internal/route -bench 'BenchmarkFinderFind|BenchmarkComponentsCompute' -benchmem

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"hilight/internal/grid"
)

// congestedLattice returns an occupancy of g about half of whose
// vertices seeded random braids (walks of 2–9 vertices) take, each braid
// kept only when tiles 0 and g.Tiles()−1 stay connected, so a search
// between them winds through a maze: the regime where the A* expansion
// and the free-component labeling do the work.
func congestedLattice(g *grid.Grid, seed int64) *Occupancy {
	rng := rand.New(rand.NewSource(seed))
	occ := NewOccupancy(g)
	var kept []Path
	var nbr []int
	var a AStar
	used := 0
	for tries := 0; used < g.NumVertices()/2 && tries < 20*g.NumVertices(); tries++ {
		v := rng.Intn(g.NumVertices())
		if occ.VertexUsed(v) {
			continue
		}
		p := Path{v}
		for j := 0; j < 1+rng.Intn(8); j++ {
			nbr = g.VertexNeighbors(v, nbr[:0])
			v = nbr[rng.Intn(len(nbr))]
			if occ.VertexUsed(v) || slices.Contains(p, v) {
				break
			}
			p = append(p, v)
		}
		occ.Add(p)
		if _, ok := a.Find(g, occ, 0, g.Tiles()-1, nil); ok {
			kept = append(kept, p)
			used += len(p)
			continue
		}
		occ.Reset() // drop p: replay the braids kept so far
		for _, k := range kept {
			occ.Add(k)
		}
	}
	return occ
}

// BenchmarkFinderFind measures one corner-to-corner search per finder on
// a 24×24 grid (the Fig. 9 scalability regime), reusing the finder,
// occupancy, and path buffer the way the router's inner loop does: on
// the empty lattice, and (the congested sub-benchmarks) on
// congestedLattice, where the search winds through about half the
// vertices taken. L-shape finds no path there; it is timed failing.
func BenchmarkFinderFind(b *testing.B) {
	g := grid.New(24, 24)
	finders := []Finder{&AStar{}, &Full16{}, &StackDFS{}, LShape{}}
	for _, f := range finders {
		b.Run(f.Name()+"/congested", func(b *testing.B) {
			occ := congestedLattice(g, 1)
			buf := make(Path, 0, g.NumVertices())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, _ := f.Find(g, occ, 0, g.Tiles()-1, buf[:0])
				if p != nil {
					buf = p
				}
			}
		})
		b.Run(f.Name(), func(b *testing.B) {
			occ := NewOccupancy(g)
			var buf Path
			// Warm up: first call sizes the per-grid scratch arrays and
			// grows the path buffer.
			p, ok := f.Find(g, occ, 0, g.Tiles()-1, buf)
			if !ok {
				b.Fatal("no path on empty grid")
			}
			buf = p
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, ok := f.Find(g, occ, 0, g.Tiles()-1, buf[:0])
				if !ok {
					b.Fatal("no path on empty grid")
				}
				buf = p
			}
		})
	}
}

// BenchmarkComponentsCompute measures one free-component labeling of a
// 24×24 lattice, empty and congested, and of a 100×100 congested one,
// whose 101-vertex rows straddle 64-bit words.
func BenchmarkComponentsCompute(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *grid.Grid
		occ  func(g *grid.Grid) *Occupancy
	}{
		{"24x24/empty", grid.New(24, 24), NewOccupancy},
		{"24x24/congested", grid.New(24, 24), func(g *grid.Grid) *Occupancy { return congestedLattice(g, 1) }},
		{"100x100/congested", grid.New(100, 100), func(g *grid.Grid) *Occupancy { return congestedLattice(g, 1) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			occ := tc.occ(tc.g)
			var cc Components
			cc.Compute(tc.g, occ)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cc.Compute(tc.g, occ)
			}
		})
	}
}

// BenchmarkOccupancy measures the occupancy primitives themselves: a
// Reset plus an Add/Conflicts round-trip over a 48-vertex path.
func BenchmarkOccupancy(b *testing.B) {
	g := grid.New(24, 24)
	occ := NewOccupancy(g)
	var p Path
	for x := 0; x <= 24; x++ {
		p = append(p, g.VertexID(x, 12))
	}
	occ.Add(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ.Reset()
		if occ.Conflicts(p) {
			b.Fatal("occupancy survived Reset")
		}
		occ.Add(p)
		if !occ.Conflicts(p) {
			b.Fatal("Add not visible")
		}
	}
}

// BenchmarkPathValidate measures Validate of a simple walk of 5, 12, 13,
// 40, 64 and 65 vertices on an open 16×16 grid: the braid lengths
// Table 1 routes (a mean of about 5) and lengths either side of the
// 64-vertex bound of firstRepeat's stack table.
func BenchmarkPathValidate(b *testing.B) {
	g := grid.New(16, 16)
	for _, n := range []int{5, 12, 13, 40, 64, 65} {
		p := snakeWalk(g, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := p.Validate(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// snakeWalk returns a simple walk of n vertices on g: along vertex row
// 0, down, back along row 1, and so on.
func snakeWalk(g *grid.Grid, n int) Path {
	w := g.W + 1
	p := make(Path, 0, n)
	for i := 0; len(p) < n; i++ {
		x, y := i%w, i/w
		if y%2 == 1 {
			x = w - 1 - x
		}
		p = append(p, g.VertexID(x, y))
	}
	return p
}
