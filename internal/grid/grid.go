// Package grid models the double-defect surface-code hardware: a 2D array
// of qubit tiles, the routing lattice of tile-corner vertices and
// routing-channel edges that braiding paths travel on, and reserved
// regions for non-braiding FTQC components such as the magic-state
// factory.
//
// Geometry. Tiles live at (x, y) with 0 ≤ x < W, 0 ≤ y < H, indexed
// row-major. Routing vertices are the tile corners (x, y) with
// 0 ≤ x ≤ W, 0 ≤ y ≤ H; routing channels are the unit edges between
// adjacent corners. Each tile exposes its four corner vertices — the
// "routing vertices" of the paper — so a two-qubit gate has 4×4 = 16
// candidate corner pairs to braid between.
//
// Reserved (factory) tiles cannot host program qubits, and channels
// strictly interior to a reserved region (edges whose both flanking tiles
// are reserved) are unroutable. A single reserved tile therefore behaves
// exactly as the paper's "singular and non-braiding logical qubit":
// it consumes a mapping slot without blocking its boundary channels.
package grid

import "fmt"

// Grid is a W×H tile array. The zero value is unusable; construct with
// New, Square, or Rect.
type Grid struct {
	W, H        int
	reserved    []bool       // per tile; true = no program qubit, non-braiding
	anyReserved bool         // some tile is reserved; false keeps EdgeRoutable's answer constant
	def         *defectState // fabrication defects; nil on a pristine grid
	vx, vy      []int32      // vertex id → corner coordinates; spares the hot paths a div/mod pair
}

// New returns a w×h grid with no reserved tiles.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	g := &Grid{W: w, H: h, reserved: make([]bool, w*h)}
	g.initCoords()
	return g
}

// initCoords fills the vertex coordinate tables. Coordinates depend only
// on W and H, so grids sharing dimensions may share the slices. int32
// holds every coordinate of a grid New accepts whose vertices fit in
// memory: a side of 2^31 tiles alone would need 2^32 vertices.
func (g *Grid) initCoords() {
	n := g.NumVertices()
	g.vx = make([]int32, n)
	g.vy = make([]int32, n)
	for v := 0; v < n; v++ {
		g.vx[v] = int32(v % g.VW())
		g.vy[v] = int32(v / g.VW())
	}
}

// Square returns the M×M grid for n program qubits, M = ceil(sqrt(n)).
func Square(n int) *Grid {
	m := isqrtCeil(n)
	return New(m, m)
}

// Rect returns the paper's hardware-level-optimized rectangular grid:
// M×(M−1) when that still fits n program qubits, M×M otherwise
// (M = ceil(sqrt(n))). The diminished grid trades a sliver of routing
// slack for a full column of hardware, balancing ResUtil.
func Rect(n int) *Grid {
	m := isqrtCeil(n)
	if m >= 2 && m*(m-1) >= n {
		return New(m, m-1)
	}
	return New(m, m)
}

func isqrtCeil(n int) int {
	if n <= 0 {
		return 1
	}
	m := 1
	for m*m < n {
		m++
	}
	return m
}

// Tiles returns the number of tiles (including reserved ones).
func (g *Grid) Tiles() int { return g.W * g.H }

// Capacity returns the number of tiles available to program qubits
// (neither reserved nor defective).
func (g *Grid) Capacity() int {
	n := 0
	for t := range g.reserved {
		if g.Usable(t) {
			n++
		}
	}
	return n
}

// TileAt returns the tile index at column x, row y.
func (g *Grid) TileAt(x, y int) int { return y*g.W + x }

// TileXY returns the column and row of tile t.
func (g *Grid) TileXY(t int) (x, y int) { return t % g.W, t / g.W }

// InBounds reports whether (x, y) names a tile.
func (g *Grid) InBounds(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// Center returns the tile closest to the geometric center of the grid —
// the CalculateCenter(grid) seed of Alg. 1. When the center lands on a
// reserved or defective tile, the nearest usable tile (by Manhattan
// distance, then index) is returned instead.
func (g *Grid) Center() int {
	cx, cy := (g.W-1)/2, (g.H-1)/2
	c := g.TileAt(cx, cy)
	if g.Usable(c) {
		return c
	}
	best, bestD := -1, 1<<30
	for t := 0; t < g.Tiles(); t++ {
		if !g.Usable(t) {
			continue
		}
		x, y := g.TileXY(t)
		d := abs(x-cx) + abs(y-cy)
		if d < bestD {
			best, bestD = t, d
		}
	}
	return best
}

// Dist returns the Manhattan distance between tiles a and b.
func (g *Grid) Dist(a, b int) int {
	ax, ay := g.TileXY(a)
	bx, by := g.TileXY(b)
	return abs(ax-bx) + abs(ay-by)
}

// CardinalNeighbors returns the in-bounds, usable tiles adjacent to t
// in N, E, S, W order — the adjacentLoc candidates of Alg. 1 — as the
// first n entries of nbrs.
func (g *Grid) CardinalNeighbors(t int) (nbrs [4]int, n int) {
	x, y := g.TileXY(t)
	for _, d := range [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}} {
		nx, ny := x+d[0], y+d[1]
		if g.InBounds(nx, ny) && g.Usable(g.TileAt(nx, ny)) {
			nbrs[n] = g.TileAt(nx, ny)
			n++
		}
	}
	return nbrs, n
}

// Reserve marks the rectangle of tiles [x0,x1]×[y0,y1] (inclusive) as a
// non-braiding region (e.g. the magic-state factory). It returns an error
// if the rectangle is out of bounds.
func (g *Grid) Reserve(x0, y0, x1, y1 int) error {
	if x0 > x1 || y0 > y1 || !g.InBounds(x0, y0) || !g.InBounds(x1, y1) {
		return fmt.Errorf("grid: reserve rectangle (%d,%d)-(%d,%d) out of bounds for %dx%d", x0, y0, x1, y1, g.W, g.H)
	}
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.ReserveTile(g.TileAt(x, y))
		}
	}
	return nil
}

// ReserveTile marks a single tile as reserved.
func (g *Grid) ReserveTile(t int) {
	g.reserved[t] = true
	g.anyReserved = true
}

// Reserved reports whether tile t is reserved.
func (g *Grid) Reserved(t int) bool { return g.reserved[t] }

// --- routing lattice --------------------------------------------------------

// VW and VH return the vertex-lattice dimensions (W+1 and H+1).
func (g *Grid) VW() int { return g.W + 1 }
func (g *Grid) VH() int { return g.H + 1 }

// NumVertices returns the number of routing vertices.
func (g *Grid) NumVertices() int { return g.VW() * g.VH() }

// VertexID returns the id of the routing vertex at corner (x, y),
// 0 ≤ x ≤ W, 0 ≤ y ≤ H.
func (g *Grid) VertexID(x, y int) int { return y*g.VW() + x }

// VertexXY returns the corner coordinates of vertex v.
func (g *Grid) VertexXY(v int) (x, y int) { return int(g.vx[v]), int(g.vy[v]) }

// Corners returns the four routing vertices of tile t in NW, NE, SW, SE
// order.
func (g *Grid) Corners(t int) [4]int {
	x, y := g.TileXY(t)
	return [4]int{
		g.VertexID(x, y),
		g.VertexID(x+1, y),
		g.VertexID(x, y+1),
		g.VertexID(x+1, y+1),
	}
}

// NumEdges returns the size of the edge-id space (2 per vertex; ids for
// edges leaving the lattice are never produced).
func (g *Grid) NumEdges() int { return 2 * g.NumVertices() }

// EdgeID returns the canonical id of the routing channel between adjacent
// vertices u and v: 2*min + 0 for a horizontal channel, +1 for vertical.
// It panics if u and v are not lattice neighbors — edge ids are produced
// only by path construction, so a bad pair is a router bug.
func (g *Grid) EdgeID(u, v int) int {
	if u > v {
		u, v = v, u
	}
	ux, uy := g.VertexXY(u)
	vx, vy := g.VertexXY(v)
	switch {
	case uy == vy && vx == ux+1:
		return 2 * u
	case ux == vx && vy == uy+1:
		return 2*u + 1
	}
	panic(fmt.Sprintf("grid: EdgeID of non-adjacent vertices %d,%d", u, v))
}

// EdgeEndpoints inverts EdgeID: it returns the two adjacent vertices of
// channel id (u < v). Edge 2u is the horizontal channel east of vertex u,
// edge 2u+1 the vertical channel south of it. Ids on the far boundary
// (where no east/south neighbor exists) have no channel and must not be
// passed.
func (g *Grid) EdgeEndpoints(id int) (u, v int) {
	u = id / 2
	ux, uy := g.VertexXY(u)
	if id%2 == 0 {
		return u, g.VertexID(ux+1, uy)
	}
	return u, g.VertexID(ux, uy+1)
}

// EdgeRoutable reports whether the channel between adjacent vertices u and
// v is usable: channels strictly interior to a reserved or defective
// region (both flanking tiles closed, or one flanking tile closed and the
// channel on the array boundary) are unroutable, as are channels marked
// defective and channels incident to a dead vertex. Boundary channels of
// a closed region shared with live tiles stay open. On a grid with no
// reserved tile and no defect every channel is open, and the answer
// takes no lookup.
func (g *Grid) EdgeRoutable(u, v int) bool {
	if g.def == nil && !g.anyReserved {
		return true
	}
	return g.edgeRoutable(u, v)
}

// edgeRoutable is EdgeRoutable on a grid with a closed tile or a defect.
func (g *Grid) edgeRoutable(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if g.def != nil {
		if g.def.vertex[u] || g.def.vertex[v] || g.def.edge[g.EdgeID(u, v)] {
			return false
		}
	}
	ux, uy := g.VertexXY(u)
	vx, _ := g.VertexXY(v)
	horizontal := vx == ux+1
	// The two tiles flanking the channel (either may be off-array).
	var t1x, t1y, t2x, t2y int
	if horizontal {
		t1x, t1y = ux, uy-1 // above
		t2x, t2y = ux, uy   // below
	} else {
		t1x, t1y = ux-1, uy // left
		t2x, t2y = ux, uy   // right
	}
	res := func(x, y int) bool {
		return g.InBounds(x, y) && !g.Usable(g.TileAt(x, y))
	}
	in1, in2 := g.InBounds(t1x, t1y), g.InBounds(t2x, t2y)
	r1, r2 := res(t1x, t1y), res(t2x, t2y)
	switch {
	case in1 && in2:
		return !(r1 && r2)
	case in1:
		return !r1
	case in2:
		return !r2
	}
	return true
}

// VertexNeighbors appends to dst the routable lattice neighbors of vertex
// v and returns the extended slice. Passing a reusable dst avoids
// per-step allocation in the A* inner loop.
func (g *Grid) VertexNeighbors(v int, dst []int) []int {
	x, y := g.VertexXY(v)
	for _, d := range [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}} {
		nx, ny := x+d[0], y+d[1]
		if nx < 0 || nx > g.W || ny < 0 || ny > g.H {
			continue
		}
		u := g.VertexID(nx, ny)
		if g.EdgeRoutable(v, u) {
			dst = append(dst, u)
		}
	}
	return dst
}

// CornerDist returns the Manhattan distance between the closest corners
// of two tiles dx columns and dy rows apart: the fewest routing channels
// a braid between them crosses.
func CornerDist(dx, dy int) int { return max(abs(dx)-1, 0) + max(abs(dy)-1, 0) }

// VertexDist returns the Manhattan distance between two routing vertices.
func (g *Grid) VertexDist(u, v int) int {
	ux, uy := g.VertexXY(u)
	vx, vy := g.VertexXY(v)
	return abs(ux-vx) + abs(uy-vy)
}

// String renders the grid dimensions and how many tiles are closed to
// program qubits (reserved or defective).
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d (%d tiles, %d reserved)", g.W, g.H, g.Tiles(), g.Tiles()-g.Capacity())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
