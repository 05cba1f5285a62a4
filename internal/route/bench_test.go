package route

// Micro-benchmarks for the routing hot path. The acceptance bar for the
// allocation-free rewrite: BenchmarkFinderFind/astar-closest reports
// 0 allocs/op in steady state (after the warm-up call), which
// TestFinderFindZeroAllocs asserts. BENCH_route.json at the repo root
// keeps a frozen snapshot; run them with
//
//	go test ./internal/route -bench BenchmarkFinderFind -benchmem

import (
	"testing"

	"hilight/internal/grid"
)

// BenchmarkFinderFind measures one uncongested corner-to-corner search per
// finder on a 24×24 grid (the Fig. 9 scalability regime), reusing the
// finder, occupancy, and path buffer the way the router's inner loop does.
func BenchmarkFinderFind(b *testing.B) {
	g := grid.New(24, 24)
	finders := []Finder{&AStar{}, &Full16{}, &StackDFS{}, LShape{}}
	for _, f := range finders {
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

// BenchmarkOccupancy measures the occupancy primitives themselves: a
// Reset plus an Add/Conflicts round-trip over a 48-vertex path.
func BenchmarkOccupancy(b *testing.B) {
	g := grid.New(24, 24)
	occ := NewOccupancy(g)
	var p Path
	for x := 0; x <= 24; x++ {
		p = append(p, g.VertexID(x, 12))
	}
	occ.Add(g, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		occ.Reset()
		if occ.Conflicts(g, p) {
			b.Fatal("occupancy survived Reset")
		}
		occ.Add(g, p)
		if !occ.Conflicts(g, p) {
			b.Fatal("Add not visible")
		}
	}
}
