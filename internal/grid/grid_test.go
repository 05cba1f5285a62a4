package grid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSquareAndRectSizing(t *testing.T) {
	cases := []struct {
		n        int
		sqW, sqH int
		rcW, rcH int
	}{
		{1, 1, 1, 1, 1},
		{4, 2, 2, 2, 2},  // 2x1=2 < 4, stays square
		{5, 3, 3, 3, 2},  // 3x2=6 >= 5
		{12, 4, 4, 4, 3}, // paper's 4x4 -> 4x3 example
		{16, 4, 4, 4, 4}, // 4x3=12 < 16
		{100, 10, 10, 10, 10},
		{90, 10, 10, 10, 9},
	}
	for _, c := range cases {
		sq := Square(c.n)
		if sq.W != c.sqW || sq.H != c.sqH {
			t.Errorf("Square(%d) = %dx%d, want %dx%d", c.n, sq.W, sq.H, c.sqW, c.sqH)
		}
		rc := Rect(c.n)
		if rc.W != c.rcW || rc.H != c.rcH {
			t.Errorf("Rect(%d) = %dx%d, want %dx%d", c.n, rc.W, rc.H, c.rcW, c.rcH)
		}
		if rc.Capacity() < c.n {
			t.Errorf("Rect(%d) capacity %d too small", c.n, rc.Capacity())
		}
	}
}

func TestTileIndexRoundTrip(t *testing.T) {
	g := New(5, 3)
	for tile := 0; tile < g.Tiles(); tile++ {
		x, y := g.TileXY(tile)
		if g.TileAt(x, y) != tile {
			t.Fatalf("tile %d -> (%d,%d) -> %d", tile, x, y, g.TileAt(x, y))
		}
		if !g.InBounds(x, y) {
			t.Fatalf("tile %d out of bounds", tile)
		}
	}
	if g.InBounds(5, 0) || g.InBounds(0, 3) || g.InBounds(-1, 0) {
		t.Error("InBounds accepts out-of-range coordinates")
	}
}

func TestCenter(t *testing.T) {
	if c := New(4, 4).Center(); c != New(4, 4).TileAt(1, 1) {
		t.Errorf("4x4 center = %d", c)
	}
	if c := New(3, 3).Center(); c != New(3, 3).TileAt(1, 1) {
		t.Errorf("3x3 center = %d", c)
	}
	g := New(3, 3)
	g.ReserveTile(g.TileAt(1, 1))
	c := g.Center()
	if g.Reserved(c) {
		t.Error("center landed on reserved tile")
	}
	if g.Dist(c, g.TileAt(1, 1)) != 1 {
		t.Errorf("fallback center %d not adjacent to true center", c)
	}
}

func TestDistAndCardinalNeighbors(t *testing.T) {
	g := New(4, 4)
	if d := g.Dist(g.TileAt(0, 0), g.TileAt(3, 2)); d != 5 {
		t.Errorf("Dist = %d", d)
	}
	nb, n := g.CardinalNeighbors(g.TileAt(1, 1))
	if want := [4]int{1, 6, 9, 4}; n != 4 || nb != want { // N, E, S, W
		t.Errorf("interior neighbors = %v", nb[:n])
	}
	nb, n = g.CardinalNeighbors(g.TileAt(0, 0))
	if n != 2 {
		t.Errorf("corner neighbors = %v", nb[:n])
	}
	g.ReserveTile(g.TileAt(1, 0))
	nb, n = g.CardinalNeighbors(g.TileAt(0, 0))
	if n != 1 || nb[0] != g.TileAt(0, 1) {
		t.Errorf("neighbors with reserved = %v", nb[:n])
	}
}

func TestReserveBounds(t *testing.T) {
	g := New(3, 3)
	if err := g.Reserve(0, 0, 1, 1); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if g.Capacity() != 5 {
		t.Errorf("capacity = %d, want 5", g.Capacity())
	}
	if err := g.Reserve(2, 2, 3, 3); err == nil {
		t.Error("out-of-bounds reserve accepted")
	}
	if err := g.Reserve(2, 2, 1, 1); err == nil {
		t.Error("inverted rectangle accepted")
	}
}

func TestVertexLattice(t *testing.T) {
	g := New(2, 2)
	if g.NumVertices() != 9 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	for v := 0; v < g.NumVertices(); v++ {
		x, y := g.VertexXY(v)
		if g.VertexID(x, y) != v {
			t.Fatalf("vertex %d round trip failed", v)
		}
	}
	c := g.Corners(g.TileAt(1, 1))
	want := [4]int{g.VertexID(1, 1), g.VertexID(2, 1), g.VertexID(1, 2), g.VertexID(2, 2)}
	if c != want {
		t.Errorf("corners = %v, want %v", c, want)
	}
}

// TestVertexXYWideGrid holds VertexXY exact on a grid wider than an
// int16 coordinate: a 40,000×1 grid, whose vertex (35000, 0) once read
// back as (−30536, 0).
func TestVertexXYWideGrid(t *testing.T) {
	g := New(40000, 1)
	for v := 0; v < g.NumVertices(); v++ {
		x, y := g.VertexXY(v)
		if x != v%g.VW() || y != v/g.VW() || g.VertexID(x, y) != v {
			t.Fatalf("vertex %d reads (%d, %d), want (%d, %d)", v, x, y, v%g.VW(), v/g.VW())
		}
	}
	if d := g.VertexDist(1, 35001); d != 35000 {
		t.Errorf("VertexDist(1, 35001) = %d, want 35000", d)
	}
}

func TestEdgeIDCanonical(t *testing.T) {
	g := New(3, 3)
	u := g.VertexID(1, 1)
	r := g.VertexID(2, 1)
	d := g.VertexID(1, 2)
	if g.EdgeID(u, r) != g.EdgeID(r, u) {
		t.Error("horizontal edge id not symmetric")
	}
	if g.EdgeID(u, d) != g.EdgeID(d, u) {
		t.Error("vertical edge id not symmetric")
	}
	if g.EdgeID(u, r) == g.EdgeID(u, d) {
		t.Error("edge ids collide")
	}
	defer func() {
		if recover() == nil {
			t.Error("EdgeID of non-adjacent pair did not panic")
		}
	}()
	g.EdgeID(g.VertexID(0, 0), g.VertexID(2, 0))
}

func TestEdgeIDsUnique(t *testing.T) {
	g := New(4, 3)
	seen := map[int]bool{}
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		x, y := g.VertexXY(v)
		if x < g.W {
			id := g.EdgeID(v, g.VertexID(x+1, y))
			if seen[id] {
				t.Fatalf("duplicate edge id %d", id)
			}
			seen[id] = true
			count++
		}
		if y < g.H {
			id := g.EdgeID(v, g.VertexID(x, y+1))
			if seen[id] {
				t.Fatalf("duplicate edge id %d", id)
			}
			seen[id] = true
			count++
		}
	}
	wantEdges := g.W*(g.H+1) + g.H*(g.W+1)
	if count != wantEdges {
		t.Errorf("edge count = %d, want %d", count, wantEdges)
	}
}

func TestEdgeRoutableAroundFactory(t *testing.T) {
	// 3x3 grid with a single reserved center tile: every channel stays
	// routable (single tile has no interior channels).
	g := New(3, 3)
	g.ReserveTile(g.TileAt(1, 1))
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.VertexNeighbors(v, nil) {
			if !g.EdgeRoutable(v, u) {
				t.Fatalf("channel %d-%d blocked by single reserved tile", v, u)
			}
		}
	}
	// 2x2 reserved block: the channel between the two reserved rows is
	// interior and must be closed.
	g2 := New(4, 4)
	if err := g2.Reserve(1, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	inner1 := g2.VertexID(2, 1)
	inner2 := g2.VertexID(2, 2)
	if g2.EdgeRoutable(inner1, inner2) {
		t.Error("interior factory channel routable")
	}
	// Boundary channel of the factory must stay open.
	b1 := g2.VertexID(1, 1)
	b2 := g2.VertexID(2, 1)
	if !g2.EdgeRoutable(b1, b2) {
		t.Error("factory boundary channel closed")
	}
}

func TestVertexNeighborsRespectBlockedEdges(t *testing.T) {
	g := New(4, 4)
	if err := g.Reserve(1, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	inner := g.VertexID(2, 2) // center of the reserved block
	n := g.VertexNeighbors(inner, nil)
	if len(n) != 0 {
		t.Errorf("interior factory vertex has neighbors %v", n)
	}
	corner := g.VertexID(0, 0)
	if len(g.VertexNeighbors(corner, nil)) != 2 {
		t.Error("grid corner should have 2 neighbors")
	}
}

func TestLayoutAssignValidate(t *testing.T) {
	g := New(3, 3)
	l := NewLayout(4, g)
	l.Assign(0, 4, g)
	l.Assign(1, 1, g)
	if err := l.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !slices.Contains(l.QubitTile, -1) {
		t.Error("partial layout has every qubit mapped")
	}
	l.Assign(2, 0, g)
	l.Assign(3, 2, g)
	if slices.Contains(l.QubitTile, -1) {
		t.Error("complete layout has an unmapped qubit")
	}
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { l.Assign(0, 5, g) }) // qubit already mapped
	l2 := NewLayout(2, g)
	l2.Assign(0, 3, g)
	mustPanic(func() { l2.Assign(1, 3, g) }) // tile occupied
	g.ReserveTile(7)
	mustPanic(func() { l2.Assign(1, 7, g) }) // reserved tile
}

func TestLayoutSwap(t *testing.T) {
	g := New(2, 2)
	l := NewLayout(2, g)
	l.Assign(0, 0, g)
	l.Assign(1, 3, g)
	l.Swap(0, 3)
	if l.QubitTile[0] != 3 || l.QubitTile[1] != 0 {
		t.Errorf("swap wrong: %v", l.QubitTile)
	}
	if err := l.Validate(g); err != nil {
		t.Fatalf("Validate after swap: %v", err)
	}
	// Swap with empty tile.
	l.Swap(3, 1)
	if l.QubitTile[0] != 1 || l.TileQubit[3] != -1 {
		t.Errorf("swap with empty wrong: %v / %v", l.QubitTile, l.TileQubit)
	}
	if err := l.Validate(g); err != nil {
		t.Fatalf("Validate after empty swap: %v", err)
	}
}

func TestLayoutCloneIndependence(t *testing.T) {
	g := New(2, 2)
	l := NewLayout(1, g)
	l.Assign(0, 0, g)
	c := l.Clone()
	c.Swap(0, 1)
	if l.QubitTile[0] != 0 {
		t.Error("clone shares storage")
	}
}

func TestNewLayoutCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized layout accepted")
		}
	}()
	NewLayout(5, New(2, 2))
}

// Property: random assignment sequences keep Validate happy and preserve
// bijectivity.
func TestLayoutRandomAssignProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(3+rng.Intn(5), 3+rng.Intn(5))
		n := 1 + rng.Intn(g.Tiles())
		l := NewLayout(n, g)
		perm := rng.Perm(g.Tiles())
		for q := 0; q < n; q++ {
			l.Assign(q, perm[q], g)
		}
		for i := 0; i < 20; i++ {
			l.Swap(rng.Intn(g.Tiles()), rng.Intn(g.Tiles()))
		}
		return l.Validate(g) == nil && !slices.Contains(l.QubitTile, -1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
