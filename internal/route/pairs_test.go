package route

import (
	"testing"

	"hilight/internal/grid"
)

// sortedCornerPairs is the reference cornerPairsByDistance reads its
// table against: all 16 corner pairs with their VertexDist, in a stable
// insertion sort by distance.
func sortedCornerPairs(g *grid.Grid, a, b int) [16]cornerPair {
	var pairs [16]cornerPair
	i := 0
	for _, u := range g.Corners(a) {
		for _, v := range g.Corners(b) {
			pairs[i] = cornerPair{u, v, g.VertexDist(u, v)}
			i++
		}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].d < pairs[j-1].d; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	return pairs
}

// TestCornerPairTableMatchesSort holds the pair-order table to the sort
// it replaces, pair for pair and distance for distance: every tile
// offset with |dx|, |dy| ≤ 3 from the centre of a 7×7 grid, and every
// ordered tile pair, the same tile included, of 1×1, 1×4, 4×1 and 3×3
// grids.
func TestCornerPairTableMatchesSort(t *testing.T) {
	check := func(g *grid.Grid, a, b int) {
		t.Helper()
		var got [16]cornerPair
		cornerPairsByDistance(g, a, b, &got)
		if want := sortedCornerPairs(g, a, b); got != want {
			t.Errorf("%dx%d grid, tiles %d→%d:\ngot  %v\nwant %v", g.W, g.H, a, b, got, want)
		}
	}
	g := grid.New(7, 7)
	for dy := -3; dy <= 3; dy++ {
		for dx := -3; dx <= 3; dx++ {
			check(g, g.TileAt(3, 3), g.TileAt(3+dx, 3+dy))
		}
	}
	for _, dims := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {3, 3}} {
		g := grid.New(dims[0], dims[1])
		for a := 0; a < g.Tiles(); a++ {
			for b := 0; b < g.Tiles(); b++ {
				check(g, a, b)
			}
		}
	}
}
