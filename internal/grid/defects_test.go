package grid

import (
	"reflect"
	"testing"
)

// applyDefects marks d's defects on g through ApplyDefects and fails the
// test if the map does not fit g.
func applyDefects(t *testing.T, g *Grid, d DefectMap) {
	t.Helper()
	if err := g.ApplyDefects(&d); err != nil {
		t.Fatal(err)
	}
}

func TestDefectMapValidate(t *testing.T) {
	g := New(3, 3)
	cases := []struct {
		name string
		d    *DefectMap
		ok   bool
	}{
		{"nil", nil, true},
		{"empty", &DefectMap{}, true},
		{"good", &DefectMap{Tiles: []int{0, 8}, Vertices: []int{5}, Channels: [][2]int{{0, 1}, {1, 5}}}, true},
		{"tile out of range", &DefectMap{Tiles: []int{9}}, false},
		{"negative tile", &DefectMap{Tiles: []int{-1}}, false},
		{"vertex out of range", &DefectMap{Vertices: []int{16}}, false},
		{"channel endpoint out of range", &DefectMap{Channels: [][2]int{{0, 99}}}, false},
		{"channel not adjacent", &DefectMap{Channels: [][2]int{{0, 2}}}, false},
		{"channel diagonal", &DefectMap{Channels: [][2]int{{0, 5}}}, false},
	}
	for _, c := range cases {
		err := c.d.Validate(g)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestApplyDefectsRejectsInvalid(t *testing.T) {
	g := New(2, 2)
	if err := g.ApplyDefects(&DefectMap{Tiles: []int{7}}); err == nil {
		t.Fatal("expected error for out-of-range tile")
	}
	if g.HasDefects() {
		t.Fatal("rejected map must not mutate the grid")
	}
}

func TestDefectPredicatesAndCapacity(t *testing.T) {
	g := New(3, 3)
	if got := g.Capacity(); got != 9 {
		t.Fatalf("pristine capacity = %d, want 9", got)
	}
	applyDefects(t, g, DefectMap{
		Tiles:    []int{4},
		Vertices: []int{g.VertexID(1, 1)},
		Channels: [][2]int{{g.VertexID(2, 2), g.VertexID(3, 2)}},
	})

	if !g.TileDefective(4) || g.TileDefective(0) {
		t.Fatal("TileDefective wrong")
	}
	if g.Usable(4) {
		t.Fatal("defective tile reported usable")
	}
	if got := g.Capacity(); got != 8 {
		t.Fatalf("capacity with one dead tile = %d, want 8", got)
	}
	if !g.VertexDefective(g.VertexID(1, 1)) {
		t.Fatal("VertexDefective wrong")
	}
	if !g.ChannelDefective(g.VertexID(2, 2), g.VertexID(3, 2)) {
		t.Fatal("ChannelDefective wrong")
	}
	// Reserved and defective are distinct annotations that both kill Usable.
	g.ReserveTile(8)
	if g.TileDefective(8) {
		t.Fatal("reservation must not read as a defect")
	}
	if g.Usable(8) {
		t.Fatal("reserved tile reported usable")
	}
}

func TestDefectEdgeRoutable(t *testing.T) {
	g := New(3, 3)
	u, v := g.VertexID(1, 1), g.VertexID(2, 1)
	if !g.EdgeRoutable(u, v) {
		t.Fatal("pristine interior edge should route")
	}
	applyDefects(t, g, DefectMap{Channels: [][2]int{{u, v}}})
	if g.EdgeRoutable(u, v) || g.EdgeRoutable(v, u) {
		t.Fatal("broken channel should not route (either direction)")
	}

	// A dead vertex kills all four incident channels.
	g2 := New(3, 3)
	w := g2.VertexID(1, 1)
	applyDefects(t, g2, DefectMap{Vertices: []int{w}})
	for _, n := range []int{g2.VertexID(0, 1), g2.VertexID(2, 1), g2.VertexID(1, 0), g2.VertexID(1, 2)} {
		if g2.EdgeRoutable(w, n) || g2.EdgeRoutable(n, w) {
			t.Fatalf("edge incident to dead vertex %d routes", w)
		}
	}
	// VertexNeighbors skips unroutable edges, so the dead vertex is isolated.
	if ns := g2.VertexNeighbors(w, nil); len(ns) != 0 {
		t.Fatalf("dead vertex has neighbors %v", ns)
	}

	// A dead tile keeps its boundary channels open — only channels interior
	// to a dead/reserved *region* close, mirroring factory reservations.
	g3 := New(3, 3)
	applyDefects(t, g3, DefectMap{Tiles: []int{4}}) // center tile, corners (1,1),(2,1),(1,2),(2,2)
	if !g3.EdgeRoutable(g3.VertexID(1, 1), g3.VertexID(2, 1)) {
		t.Fatal("single dead tile must not close its boundary channels")
	}
	applyDefects(t, g3, DefectMap{Tiles: []int{1}}) // tile above center: edge (1,1)-(2,1) now interior
	if g3.EdgeRoutable(g3.VertexID(1, 1), g3.VertexID(2, 1)) {
		t.Fatal("channel between two dead tiles should be closed")
	}
}

func TestDefectsRoundTrip(t *testing.T) {
	g := New(4, 3)
	want := &DefectMap{
		Tiles:    []int{2, 7},
		Vertices: []int{6},
		Channels: [][2]int{{0, 1}, {3, 8}},
	}
	if err := g.ApplyDefects(want); err != nil {
		t.Fatal(err)
	}
	got := g.Defects()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Defects() = %+v, want %+v", got, want)
	}

	data, err := EncodeDefects(got)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeDefects(data)
	if err != nil {
		t.Fatal(err)
	}
	g2 := New(4, 3)
	if err := g2.ApplyDefects(dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g2.Defects(), want) {
		t.Fatalf("JSON round-trip lost defects: %+v", g2.Defects())
	}

	if _, err := DecodeDefects([]byte("{nope")); err == nil {
		t.Fatal("expected decode error for bad JSON")
	}
	if d := New(2, 2).Defects(); !d.Empty() {
		t.Fatalf("pristine grid Defects() = %+v, want empty", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(3, 3)
	g.ReserveTile(0)
	applyDefects(t, g, DefectMap{Tiles: []int{4}})
	c := g.Clone()
	if !c.Reserved(0) || !c.TileDefective(4) {
		t.Fatal("clone lost reservation or defect")
	}
	applyDefects(t, c, DefectMap{Tiles: []int{5}, Vertices: []int{0}})
	if g.TileDefective(5) || g.VertexDefective(0) {
		t.Fatal("mutating clone leaked into original")
	}
	// Cloning a pristine grid stays pristine (defect state lazily allocated).
	p := New(2, 2).Clone()
	if p.HasDefects() {
		t.Fatal("clone of pristine grid has defect state")
	}
}
