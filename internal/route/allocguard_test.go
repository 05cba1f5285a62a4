package route

import (
	"testing"

	"hilight/internal/grid"
)

// TestFinderFindZeroAllocs is the CI guard for the allocation-free
// routing hot path: after the warm-up call has sized the per-grid
// scratch and the path buffer, Finder.Find must not allocate. This pins
// the steady-state behavior BenchmarkFinderFind measures, so a
// regression fails `go test` instead of only drifting a benchmark
// number. The walled case pins the failure path the same way. Windowed
// runs without and with a congestion field; with one, every Find
// attaches the field again, so every search ranks it anew.
func TestFinderFindZeroAllocs(t *testing.T) {
	g := grid.New(24, 24)
	// A wall down vertex column 12 cuts the lattice in two, so no path
	// joins tile 0 to the last tile.
	var wall Path
	for y := 0; y < g.VH(); y++ {
		wall = append(wall, g.VertexID(12, y))
	}
	finders := []Finder{&AStar{}, &Full16{}, &StackDFS{}, LShape{}, &Windowed{}, newCongWindowed(g)}
	for _, f := range finders {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			occ := NewOccupancy(g)
			var buf Path
			p, ok := f.Find(g, occ, 0, g.Tiles()-1, buf)
			if !ok {
				t.Fatal("no path on empty grid")
			}
			buf = p
			allocs := testing.AllocsPerRun(20, func() {
				p, ok := f.Find(g, occ, 0, g.Tiles()-1, buf[:0])
				if !ok {
					t.Error("no path on empty grid")
					return
				}
				buf = p
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs/op in steady state, want 0", f.Name(), allocs)
			}

			// Each call starts a new epoch and re-adds the wall, so every
			// call pays a failed search and, in the complete finders, a
			// fresh free-component labeling.
			t.Run("walled", func(t *testing.T) {
				walledFind := func() bool {
					occ.Reset()
					occ.Add(wall)
					_, ok := f.Find(g, occ, 0, g.Tiles()-1, buf[:0])
					return ok
				}
				if walledFind() {
					t.Fatal("path through a full wall")
				}
				allocs := testing.AllocsPerRun(20, func() {
					if walledFind() {
						t.Error("path through a full wall")
					}
				})
				if allocs != 0 {
					t.Errorf("%s: %.1f allocs/op on a failing Find, want 0", f.Name(), allocs)
				}
			})
		})
	}
}
