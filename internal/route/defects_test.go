package route

import (
	"testing"

	"hilight/internal/grid"
)

// applyDefects marks d's defects on g through ApplyDefects and fails the
// test if the map does not fit g.
func applyDefects(t *testing.T, g *grid.Grid, d grid.DefectMap) {
	t.Helper()
	if err := g.ApplyDefects(&d); err != nil {
		t.Fatal(err)
	}
}

// Defective vertices and channels must read as occupied from the moment
// the Occupancy is built, and stay occupied across every Reset epoch — the
// property all four finders rely on to route around fabrication damage.
func TestOccupancyDefects(t *testing.T) {
	g := grid.New(3, 3)
	dead := g.VertexID(1, 1)
	cu, cv := g.VertexID(2, 2), g.VertexID(3, 2)
	applyDefects(t, g, grid.DefectMap{Vertices: []int{dead}, Channels: [][2]int{{cu, cv}}})

	o := NewOccupancy(g)
	for epoch := 0; epoch < 3; epoch++ {
		if !o.VertexUsed(dead) {
			t.Fatalf("epoch %d: dead vertex not occupied", epoch)
		}
		if !o.EdgeUsed(g, cu, cv) || !o.EdgeUsed(g, cv, cu) {
			t.Fatalf("epoch %d: broken channel not occupied", epoch)
		}
		live := g.VertexID(0, 0)
		if o.VertexUsed(live) {
			t.Fatalf("epoch %d: pristine vertex occupied", epoch)
		}
		// Normal occupancy still works and still clears on Reset.
		p := Path{g.VertexID(0, 0), g.VertexID(1, 0)}
		o.Add(p)
		if !o.VertexUsed(live) || !o.Conflicts(p) {
			t.Fatalf("epoch %d: Add did not register", epoch)
		}
		o.Reset()
		if o.VertexUsed(live) {
			t.Fatalf("epoch %d: Reset did not clear live vertex", epoch)
		}
	}
}

// A path through a defective vertex must fail Validate even if it is
// otherwise well-formed.
func TestPathValidateRejectsDefects(t *testing.T) {
	g := grid.New(3, 3)
	p := Path{g.VertexID(0, 1), g.VertexID(1, 1), g.VertexID(2, 1)}
	if err := p.Validate(g); err != nil {
		t.Fatalf("pristine path invalid: %v", err)
	}
	applyDefects(t, g, grid.DefectMap{Vertices: []int{g.VertexID(1, 1)}})
	if err := p.Validate(g); err == nil {
		t.Fatal("path through dead vertex validated")
	}
	g2 := grid.New(3, 3)
	applyDefects(t, g2, grid.DefectMap{Channels: [][2]int{{g2.VertexID(1, 1), g2.VertexID(2, 1)}}})
	if err := p.Validate(g2); err == nil {
		t.Fatal("path over broken channel validated")
	}
}

// Every finder refuses to cross a defect wall and finds the detour when
// one exists.
func TestFindersAvoidDefects(t *testing.T) {
	finders := map[string]Finder{
		"astar":    &AStar{},
		"full16":   &Full16{},
		"stackdfs": &StackDFS{},
		"lshape":   LShape{},
	}
	for name, f := range finders {
		t.Run(name, func(t *testing.T) {
			// 4×2 grid; kill the middle of the vertex column x=2 but leave
			// the top and bottom lattice rows open, so a detour exists.
			g := grid.New(4, 2)
			applyDefects(t, g, grid.DefectMap{Vertices: []int{g.VertexID(2, 1)}})
			o := NewOccupancy(g)
			p, ok := f.Find(g, o, g.TileAt(0, 0), g.TileAt(3, 1), nil)
			if !ok {
				t.Fatal("no path despite open detour")
			}
			if err := p.Validate(g); err != nil {
				t.Fatalf("found path invalid: %v", err)
			}
			for _, v := range p {
				if g.VertexDefective(v) {
					t.Fatalf("path crosses dead vertex %d", v)
				}
			}

			// Now wall off the whole column: no path may be reported.
			for y := 0; y <= g.H; y++ {
				applyDefects(t, g, grid.DefectMap{Vertices: []int{g.VertexID(2, y)}})
			}
			o2 := NewOccupancy(g)
			if p, ok := f.Find(g, o2, g.TileAt(0, 0), g.TileAt(3, 1), nil); ok {
				t.Fatalf("found path %v across a full defect wall", p)
			}
		})
	}
}
