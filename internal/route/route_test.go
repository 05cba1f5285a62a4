package route

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hilight/internal/grid"
)

func TestPathLen(t *testing.T) {
	if (Path{}).Len() != 0 {
		t.Error("empty path length")
	}
	if (Path{5}).Len() != 0 {
		t.Error("single-vertex path length")
	}
	if (Path{0, 1, 2}).Len() != 2 {
		t.Error("path length")
	}
}

func TestPathValidate(t *testing.T) {
	g := grid.New(3, 3)
	v := func(x, y int) int { return g.VertexID(x, y) }
	good := Path{v(0, 0), v(1, 0), v(1, 1)}
	if err := good.Validate(g); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
	bad := []Path{
		{},                          // empty
		{v(0, 0), v(2, 0)},          // non-adjacent hop
		{v(0, 0), v(1, 0), v(0, 0)}, // repeated vertex
		{-1},                        // out of range
	}
	for i, p := range bad {
		if err := p.Validate(g); err == nil {
			t.Errorf("bad path %d accepted", i)
		}
	}
}

func TestOccupancyConflicts(t *testing.T) {
	g := grid.New(3, 3)
	occ := NewOccupancy(g)
	v := func(x, y int) int { return g.VertexID(x, y) }
	p1 := Path{v(0, 0), v(1, 0), v(2, 0)}
	occ.Add(p1)
	if !occ.Conflicts(Path{v(1, 0), v(1, 1)}) {
		t.Error("shared vertex not detected")
	}
	if !occ.Conflicts(Path{v(0, 0), v(1, 0)}) {
		t.Error("shared edge not detected")
	}
	if occ.Conflicts(Path{v(0, 1), v(1, 1)}) {
		t.Error("disjoint path flagged")
	}
	occ.Reset()
	if occ.Conflicts(p1) {
		t.Error("occupancy survived Reset")
	}
}

// mapOccupancy is the reference Occupancy is held to: the vertices and
// channels taken this cycle in two maps, read together with the grid's
// dead vertices and unroutable channels, which no Reset frees.
type mapOccupancy struct {
	g        *grid.Grid
	vertices map[int]bool
	edges    map[int]bool
}

func newMapOccupancy(g *grid.Grid) *mapOccupancy {
	return &mapOccupancy{g: g, vertices: map[int]bool{}, edges: map[int]bool{}}
}

func (o *mapOccupancy) Reset() {
	clear(o.vertices)
	clear(o.edges)
}

func (o *mapOccupancy) vertexUsed(v int) bool {
	return o.vertices[v] || o.g.VertexDefective(v)
}

// edgeUsed reports the channel between adjacent u and v taken or
// unroutable.
func (o *mapOccupancy) edgeUsed(u, v int) bool {
	return o.edges[o.g.EdgeID(u, v)] || !o.g.EdgeRoutable(u, v)
}

// blocked reports the channel from v toward (x+dx, y+dy) off-lattice,
// taken or unroutable.
func (o *mapOccupancy) blocked(v, dx, dy int) bool {
	x, y := o.g.VertexXY(v)
	if x+dx >= o.g.VW() || y+dy >= o.g.VH() {
		return true
	}
	return o.edgeUsed(v, o.g.VertexID(x+dx, y+dy))
}

func (o *mapOccupancy) Conflicts(p Path) bool {
	for i, v := range p {
		if o.vertexUsed(v) || i > 0 && o.edgeUsed(p[i-1], v) {
			return true
		}
	}
	return false
}

func (o *mapOccupancy) Add(p Path) {
	for i, v := range p {
		o.vertices[v] = true
		if i > 0 {
			o.edges[o.g.EdgeID(p[i-1], v)] = true
		}
	}
}

// TryAdd marks p step by step until a vertex or channel is already
// used, leaving the steps before it marked.
func (o *mapOccupancy) TryAdd(p Path) bool {
	for i, v := range p {
		if o.vertexUsed(v) {
			return false
		}
		if i > 0 {
			if o.edgeUsed(p[i-1], v) {
				return false
			}
			o.edges[o.g.EdgeID(p[i-1], v)] = true
		}
		o.vertices[v] = true
	}
	return true
}

func (o *mapOccupancy) HRunFree(y, x0, x1 int) bool {
	for x := min(x0, x1); x <= max(x0, x1); x++ {
		v := o.g.VertexID(x, y)
		if o.vertexUsed(v) || x < max(x0, x1) && o.blocked(v, 1, 0) {
			return false
		}
	}
	return true
}

// occupancyDiff returns the first probe on which occ and ref disagree
// over the whole lattice, or "". EdgeUsed is compared on routable
// channels alone, the only ones its callers ask about.
func occupancyDiff(g *grid.Grid, occ *Occupancy, ref *mapOccupancy) string {
	for v := 0; v < g.NumVertices(); v++ {
		if occ.VertexUsed(v) != ref.vertexUsed(v) {
			return fmt.Sprintf("VertexUsed(%d)", v)
		}
		if occ.EastBlocked(v) != ref.blocked(v, 1, 0) {
			return fmt.Sprintf("EastBlocked(%d)", v)
		}
		if occ.SouthBlocked(v) != ref.blocked(v, 0, 1) {
			return fmt.Sprintf("SouthBlocked(%d)", v)
		}
		x, y := g.VertexXY(v)
		for _, u := range [2]int{g.VertexID(x+1, y), g.VertexID(x, y+1)} {
			if u < g.NumVertices() && g.VertexDist(u, v) == 1 && g.EdgeRoutable(v, u) &&
				occ.EdgeUsed(g, v, u) != ref.edgeUsed(v, u) {
				return fmt.Sprintf("EdgeUsed(%d, %d)", v, u)
			}
		}
	}
	return ""
}

// TestOccupancyMatchesMapReference drives Occupancy and mapOccupancy
// through hundreds of reset rounds on randomLattice's grids (defects,
// rows straddling 64-bit words) with a reserved factory of one to four
// tiles. Each round adds and tries random walks and probes random walks
// and rows; after every mutation and every Reset the two must agree on
// every vertex and channel, so a Reset that leaves a word dirty, or
// restores one without its permanent bits, fails here. Walks step only
// over routable channels, as every braid does; Add's start on a live
// vertex, while TryAdd's and Conflicts' may start on a dead one.
func TestOccupancyMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomLattice(rng)
		fw, fh := 1+rng.Intn(2), 1+rng.Intn(2)
		fx, fy := rng.Intn(g.W-fw+1), rng.Intn(g.H-fh+1)
		if err := g.Reserve(fx, fy, fx+fw-1, fy+fh-1); err != nil {
			t.Fatal(err)
		}
		occ := NewOccupancy(g)
		ref := newMapOccupancy(g)
		var nbr []int
		walk := func(live bool) Path {
			v := rng.Intn(g.NumVertices())
			for live && g.VertexDefective(v) {
				v = rng.Intn(g.NumVertices())
			}
			p := Path{v}
			for i := 0; i < 1+rng.Intn(8); i++ {
				nbr = g.VertexNeighbors(v, nbr[:0])
				if len(nbr) == 0 {
					break
				}
				v = nbr[rng.Intn(len(nbr))]
				p = append(p, v)
			}
			return p
		}
		check := func(round int, op string) bool {
			if d := occupancyDiff(g, occ, ref); d != "" {
				t.Logf("seed %d round %d: after %s, %s differs from the reference on %dx%d", seed, round, op, d, g.W, g.H)
				return false
			}
			return true
		}
		for round := 0; round < 300; round++ {
			for op := 0; op < 1+rng.Intn(6); op++ {
				switch rng.Intn(4) {
				case 0:
					p := walk(true)
					occ.Add(p)
					ref.Add(p)
					if !check(round, "Add") {
						return false
					}
				case 1:
					p := walk(false)
					if got, want := occ.TryAdd(p), ref.TryAdd(p); got != want {
						t.Logf("seed %d round %d: TryAdd(%v) = %v, reference %v", seed, round, p, got, want)
						return false
					}
					if !check(round, "TryAdd") {
						return false
					}
				case 2:
					p := walk(false)
					if got, want := occ.Conflicts(p), ref.Conflicts(p); got != want {
						t.Logf("seed %d round %d: Conflicts(%v) = %v, reference %v", seed, round, p, got, want)
						return false
					}
				default:
					y, x0, x1 := rng.Intn(g.VH()), rng.Intn(g.VW()), rng.Intn(g.VW())
					if got, want := occ.HRunFree(y, x0, x1), ref.HRunFree(y, x0, x1); got != want {
						t.Logf("seed %d round %d: HRunFree(%d, %d, %d) = %v, reference %v", seed, round, y, x0, x1, got, want)
						return false
					}
				}
			}
			occ.Reset()
			ref.Reset()
			if !check(round, "Reset") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOccupancyManyResets exercises the epoch counter across far more
// cycles than any single mapping uses.
func TestOccupancyManyResets(t *testing.T) {
	g := grid.New(3, 3)
	occ := NewOccupancy(g)
	p := Path{g.VertexID(0, 0), g.VertexID(1, 0)}
	for i := 0; i < 10000; i++ {
		occ.Reset()
		if occ.Conflicts(p) {
			t.Fatalf("reset %d: stale occupancy", i)
		}
		occ.Add(p)
		if !occ.Conflicts(p) {
			t.Fatalf("reset %d: Add not visible", i)
		}
	}
}

// TestFinderBufferOwnership checks the Find buffer contract: results
// written into a caller buffer alias it, nil-buf results own their
// storage, and a finder's internal scratch never leaks into an earlier
// result.
func TestFinderBufferOwnership(t *testing.T) {
	g := grid.New(6, 6)
	for _, f := range append(finders(), LShape{}) {
		occ := NewOccupancy(g)
		p1, ok := f.Find(g, occ, g.TileAt(0, 0), g.TileAt(5, 5), nil)
		if !ok {
			t.Fatalf("%s: no path", f.Name())
		}
		snapshot := append(Path(nil), p1...)
		// A second search with a different target must not mutate p1.
		if _, ok := f.Find(g, occ, g.TileAt(5, 0), g.TileAt(0, 5), nil); !ok {
			t.Fatalf("%s: no second path", f.Name())
		}
		for i := range p1 {
			if p1[i] != snapshot[i] {
				t.Fatalf("%s: nil-buf result mutated by later Find", f.Name())
			}
		}
		// A caller-owned buffer must be reused when it has capacity.
		buf := make(Path, 0, 64)
		p2, ok := f.Find(g, occ, g.TileAt(0, 0), g.TileAt(5, 5), buf)
		if !ok {
			t.Fatalf("%s: no buffered path", f.Name())
		}
		if len(p2) > 0 && len(p2) <= cap(buf) && &p2[0] != &buf[:1][0] {
			t.Errorf("%s: result did not reuse the caller's buffer", f.Name())
		}
	}
}

func finders() []Finder {
	return []Finder{&AStar{}, &Full16{}, &StackDFS{}}
}

func TestFindersBasicPath(t *testing.T) {
	g := grid.New(4, 4)
	for _, f := range finders() {
		occ := NewOccupancy(g)
		p, ok := f.Find(g, occ, g.TileAt(0, 0), g.TileAt(3, 3), nil)
		if !ok {
			t.Fatalf("%s: no path on empty grid", f.Name())
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s: invalid path: %v", f.Name(), err)
		}
		// Endpoints must be corners of the two tiles.
		if !isCorner(g, p[0], g.TileAt(0, 0)) || !isCorner(g, p[len(p)-1], g.TileAt(3, 3)) {
			t.Errorf("%s: endpoints not tile corners", f.Name())
		}
	}
}

func isCorner(g *grid.Grid, v, tile int) bool {
	for _, c := range g.Corners(tile) {
		if c == v {
			return true
		}
	}
	return false
}

func TestFindersAdjacentTilesShareCorner(t *testing.T) {
	g := grid.New(4, 4)
	for _, f := range finders() {
		occ := NewOccupancy(g)
		p, ok := f.Find(g, occ, g.TileAt(1, 1), g.TileAt(2, 1), nil)
		if !ok {
			t.Fatalf("%s: no path between adjacent tiles", f.Name())
		}
		if p.Len() != 0 {
			t.Errorf("%s: adjacent tiles path length = %d, want 0", f.Name(), p.Len())
		}
	}
}

func TestAStarFindsShortestPath(t *testing.T) {
	g := grid.New(5, 5)
	occ := NewOccupancy(g)
	var a AStar
	p, ok := a.Find(g, occ, g.TileAt(0, 0), g.TileAt(4, 0), nil)
	if !ok {
		t.Fatal("no path")
	}
	// Closest corners are (1,y) and (4,y): distance 3.
	if p.Len() != 3 {
		t.Errorf("path length = %d, want 3", p.Len())
	}
}

func TestFindersRouteAroundCongestion(t *testing.T) {
	g := grid.New(5, 3)
	// Occupy the whole middle corner column x=2 except the top row, forcing
	// a detour over the top.
	occ := NewOccupancy(g)
	var wall Path
	for y := 1; y <= g.H; y++ {
		wall = append(wall, g.VertexID(2, y))
	}
	occ.Add(wall)
	for _, f := range finders() {
		p, ok := f.Find(g, occ, g.TileAt(0, 1), g.TileAt(4, 1), nil)
		if !ok {
			t.Fatalf("%s: no detour found", f.Name())
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s: invalid detour: %v", f.Name(), err)
		}
		if occ.Conflicts(p) {
			t.Fatalf("%s: detour crosses occupied lattice", f.Name())
		}
	}
}

func TestFindersFailWhenBlocked(t *testing.T) {
	g := grid.New(5, 3)
	// Occupy the entire corner column x=2: no path from left to right.
	occ := NewOccupancy(g)
	var wall Path
	for y := 0; y <= g.H; y++ {
		wall = append(wall, g.VertexID(2, y))
	}
	occ.Add(wall)
	for _, f := range finders() {
		if _, ok := f.Find(g, occ, g.TileAt(0, 1), g.TileAt(4, 1), nil); ok {
			t.Errorf("%s: found path through a full wall", f.Name())
		}
	}
}

func TestFull16NotWorseThanAStar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grid.New(3+rng.Intn(6), 3+rng.Intn(6))
		occ := NewOccupancy(g)
		// Random pre-existing braids.
		var a AStar
		for i := 0; i < 3; i++ {
			t1, t2 := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
			if t1 == t2 {
				continue
			}
			if p, ok := a.Find(g, occ, t1, t2, nil); ok {
				occ.Add(p)
			}
		}
		t1, t2 := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
		if t1 == t2 {
			return true
		}
		var full Full16
		var one AStar
		pf, okF := full.Find(g, occ, t1, t2, nil)
		p1, ok1 := one.Find(g, occ, t1, t2, nil)
		if ok1 && !okF {
			return false // full search must find anything the single search finds
		}
		if ok1 && okF && pf.Len() > p1.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every finder returns paths that validate, end on the right
// tiles' corners, and avoid the occupancy set.
func TestFinderPathsAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := grid.New(2+rng.Intn(7), 2+rng.Intn(7))
		occ := NewOccupancy(g)
		fs := finders()
		for i := 0; i < 8; i++ {
			t1, t2 := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
			if t1 == t2 {
				continue
			}
			fd := fs[rng.Intn(len(fs))]
			p, ok := fd.Find(g, occ, t1, t2, nil)
			if !ok {
				continue
			}
			if p.Validate(g) != nil || occ.Conflicts(p) {
				return false
			}
			if !isCorner(g, p[0], t1) || !isCorner(g, p[len(p)-1], t2) {
				return false
			}
			occ.Add(p)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFindersRespectFactoryInterior(t *testing.T) {
	g := grid.New(6, 6)
	if err := g.Reserve(2, 2, 3, 3); err != nil {
		t.Fatal(err)
	}
	for _, f := range finders() {
		occ := NewOccupancy(g)
		p, ok := f.Find(g, occ, g.TileAt(0, 2), g.TileAt(5, 2), nil)
		if !ok {
			t.Fatalf("%s: no path around factory", f.Name())
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		// The factory-interior vertex (3,3) must not appear.
		inner := g.VertexID(3, 3)
		for _, v := range p {
			if v == inner {
				t.Errorf("%s: path crosses factory interior", f.Name())
			}
		}
	}
}

func TestFinderReuseAcrossSearches(t *testing.T) {
	// The stateful finders must give correct results across many calls
	// (epoch/stamp reuse).
	g := grid.New(6, 6)
	var a AStar
	var s StackDFS
	occ := NewOccupancy(g)
	for i := 0; i < 50; i++ {
		t1 := i % g.Tiles()
		t2 := (i*7 + 3) % g.Tiles()
		if t1 == t2 {
			continue
		}
		occ.Reset()
		if p, ok := a.Find(g, occ, t1, t2, nil); !ok || p.Validate(g) != nil {
			t.Fatalf("astar iteration %d failed", i)
		}
		if p, ok := s.Find(g, occ, t1, t2, nil); !ok || p.Validate(g) != nil {
			t.Fatalf("dfs iteration %d failed", i)
		}
	}
}
