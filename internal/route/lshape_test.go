package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hilight/internal/grid"
)

func TestLShapeBasicPath(t *testing.T) {
	g := grid.New(5, 5)
	occ := NewOccupancy(g)
	var f LShape
	p, ok := f.Find(g, occ, g.TileAt(0, 0), g.TileAt(4, 4), nil)
	if !ok {
		t.Fatal("no path on empty grid")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !isCorner(g, p[0], g.TileAt(0, 0)) || !isCorner(g, p[len(p)-1], g.TileAt(4, 4)) {
		t.Error("endpoints not corners")
	}
	// Two-bend path: its length equals the corner Manhattan distance.
	if p.Len() != g.VertexDist(p[0], p[len(p)-1]) {
		t.Errorf("L path longer than Manhattan distance: %d vs %d",
			p.Len(), g.VertexDist(p[0], p[len(p)-1]))
	}
}

func TestLShapeAdjacentTiles(t *testing.T) {
	g := grid.New(3, 3)
	var f LShape
	p, ok := f.Find(g, NewOccupancy(g), g.TileAt(0, 0), g.TileAt(1, 0), nil)
	if !ok || p.Len() != 0 {
		t.Fatalf("adjacent tiles: ok=%v len=%d", ok, p.Len())
	}
}

func TestLShapeDefersWhenBothBendsBlocked(t *testing.T) {
	g := grid.New(5, 3)
	occ := NewOccupancy(g)
	// Wall the whole middle corner column except the top row: A* detours
	// over the top, the two-bend router must give up.
	var wall Path
	for y := 1; y <= g.H; y++ {
		wall = append(wall, g.VertexID(2, y))
	}
	occ.Add(g, wall)
	var l LShape
	if _, ok := l.Find(g, occ, g.TileAt(0, 1), g.TileAt(4, 1), nil); ok {
		t.Fatal("L-shape routed through a wall it cannot bend around")
	}
	var a AStar
	if _, ok := a.Find(g, occ, g.TileAt(0, 1), g.TileAt(4, 1), nil); !ok {
		t.Fatal("A* should still find the detour")
	}
}

// TestLShapeFailedFindAllocatesNothing holds a Find that fails on every
// corner pair to zero allocations with a nil buffer: each bend is probed
// before a vertex is written, so only a free walk takes storage.
func TestLShapeFailedFindAllocatesNothing(t *testing.T) {
	g := grid.New(5, 3)
	occ := NewOccupancy(g)
	var wall Path
	for y := 1; y <= g.H; y++ {
		wall = append(wall, g.VertexID(2, y))
	}
	occ.Add(g, wall)
	var l LShape
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := l.Find(g, occ, g.TileAt(0, 1), g.TileAt(4, 1), nil); ok {
			t.Fatal("L-shape routed through a wall it cannot bend around")
		}
	})
	if allocs != 0 {
		t.Errorf("failed Find: %.1f allocs, want 0", allocs)
	}
}

func TestLShapeTriesBothOrientations(t *testing.T) {
	g := grid.New(4, 4)
	occ := NewOccupancy(g)
	// Block the horizontal-first bend between tiles (0,0) and (2,2) but
	// leave the vertical-first one open: occupy the corner east of the
	// source's closest corner.
	src := g.TileAt(0, 0)
	tgt := g.TileAt(2, 2)
	occ.Add(g, Path{g.VertexID(2, 1)})
	var l LShape
	p, ok := l.Find(g, occ, src, tgt, nil)
	if !ok {
		t.Fatal("no path despite open vertical-first bend")
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if occ.Conflicts(g, p) {
		t.Fatal("path crosses occupancy")
	}
}

// Property: whatever LShape returns is valid, conflict-free, and never
// longer than the Manhattan distance of its own endpoints.
func TestLShapePathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grid.New(2+rng.Intn(7), 2+rng.Intn(7))
		occ := NewOccupancy(g)
		var l LShape
		for i := 0; i < 10; i++ {
			t1, t2 := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
			if t1 == t2 {
				continue
			}
			p, ok := l.Find(g, occ, t1, t2, nil)
			if !ok {
				continue
			}
			if p.Validate(g) != nil || occ.Conflicts(g, p) {
				return false
			}
			if p.Len() != g.VertexDist(p[0], p[len(p)-1]) {
				return false
			}
			occ.Add(g, p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLShapeInCoreRouter(t *testing.T) {
	// The L-shape finder must still complete circuits (deferrals resolve
	// across cycles). Checked through the route-level contract only here;
	// core integration is exercised by the ablation experiment.
	g := grid.New(6, 6)
	occ := NewOccupancy(g)
	var l LShape
	routed := 0
	for i := 0; i < 30; i++ {
		occ.Reset()
		if _, ok := l.Find(g, occ, i%g.Tiles(), (i*11+5)%g.Tiles(), nil); ok {
			routed++
		}
	}
	if routed < 25 {
		t.Errorf("only %d/30 single-braid cycles routed on an empty grid", routed)
	}
}
