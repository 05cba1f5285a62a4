package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hilight/internal/faultinject"
	"hilight/internal/grid"
	"hilight/internal/hwopt"
	"hilight/internal/route"
	"hilight/internal/sched"
	"hilight/internal/wire"
)

// The braid rule's oracles: grid.EdgeRoutable, route.Path.Validate and
// sched.CheckBraid as they stood before EdgeRoutable answered open grids
// at once and Path.Validate found a repeated vertex in one pass. They
// read the grid through its public predicates only.

// oracleEdgeRoutable looks up the defects and the two tiles flanking the
// channel between adjacent vertices u and v on every call.
func oracleEdgeRoutable(g *grid.Grid, u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if g.VertexDefective(u) || g.VertexDefective(v) || g.ChannelDefective(u, v) {
		return false
	}
	ux, uy := g.VertexXY(u)
	vx, _ := g.VertexXY(v)
	var t1x, t1y, t2x, t2y int
	if vx == ux+1 {
		t1x, t1y = ux, uy-1 // above
		t2x, t2y = ux, uy   // below
	} else {
		t1x, t1y = ux-1, uy // left
		t2x, t2y = ux, uy   // right
	}
	closed := func(x, y int) bool { return g.InBounds(x, y) && !g.Usable(g.TileAt(x, y)) }
	in1, in2 := g.InBounds(t1x, t1y), g.InBounds(t2x, t2y)
	r1, r2 := closed(t1x, t1y), closed(t2x, t2y)
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

// oraclePathValidate walks p once for range, defects, adjacency and
// channels, then looks for a repeated vertex pairwise up to 64 vertices
// and with a map beyond.
func oraclePathValidate(p route.Path, g *grid.Grid) error {
	if len(p) == 0 {
		return fmt.Errorf("route: empty path")
	}
	for i, v := range p {
		if v < 0 || v >= g.NumVertices() {
			return fmt.Errorf("route: vertex %d out of range", v)
		}
		if g.VertexDefective(v) {
			return fmt.Errorf("route: vertex %d is defective", v)
		}
		if i == 0 {
			continue
		}
		if g.VertexDist(p[i-1], v) != 1 {
			return fmt.Errorf("route: vertices %d and %d not adjacent", p[i-1], v)
		}
		if !oracleEdgeRoutable(g, p[i-1], v) {
			return fmt.Errorf("route: channel %d-%d not routable", p[i-1], v)
		}
	}
	if len(p) <= 64 {
		for i := 1; i < len(p); i++ {
			for j := 0; j < i; j++ {
				if p[j] == p[i] {
					return fmt.Errorf("route: vertex %d repeated", p[i])
				}
			}
		}
		return nil
	}
	seen := make(map[int]bool, len(p))
	for _, v := range p {
		if seen[v] {
			return fmt.Errorf("route: vertex %d repeated", v)
		}
		seen[v] = true
	}
	return nil
}

// oracleCheckBraid is sched.CheckBraid over oraclePathValidate.
func oracleCheckBraid(g *grid.Grid, b sched.Braid) error {
	if n := g.Tiles(); b.CtlTile < 0 || b.CtlTile >= n || b.TgtTile < 0 || b.TgtTile >= n {
		return fmt.Errorf("tile %d or %d out of range for %d tiles", b.CtlTile, b.TgtTile, n)
	}
	if err := oraclePathValidate(b.Path, g); err != nil {
		return err
	}
	if !g.Usable(b.CtlTile) || !g.Usable(b.TgtTile) {
		return fmt.Errorf("anchored on unusable (reserved/defective) tile %d or %d", b.CtlTile, b.TgtTile)
	}
	corner := func(v, t int) bool {
		tx, ty := g.TileXY(t)
		x, y := g.VertexXY(v)
		return uint(x-tx) <= 1 && uint(y-ty) <= 1
	}
	if !corner(b.Path[0], b.CtlTile) {
		return fmt.Errorf("path start not a corner of tile %d", b.CtlTile)
	}
	if !corner(b.Path[len(b.Path)-1], b.TgtTile) {
		return fmt.Errorf("path end not a corner of tile %d", b.TgtTile)
	}
	return nil
}

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ruleGrid is one grid the braid rule is held to its oracle on.
type ruleGrid struct {
	name string
	g    *grid.Grid
}

// randomDefects returns a defect map of a few dead tiles, vertices and
// channels on g.
func randomDefects(rng *rand.Rand, g *grid.Grid) *grid.DefectMap {
	d := &grid.DefectMap{}
	for i := rng.Intn(3); i >= 0; i-- {
		d.Tiles = append(d.Tiles, rng.Intn(g.Tiles()))
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Vertices = append(d.Vertices, rng.Intn(g.NumVertices()))
	}
	for i := rng.Intn(4); i > 0; i-- {
		v := rng.Intn(g.NumVertices())
		x, y := g.VertexXY(v)
		switch {
		case x < g.W:
			d.Channels = append(d.Channels, [2]int{v, g.VertexID(x+1, y)})
		case y < g.H:
			d.Channels = append(d.Channels, [2]int{v, g.VertexID(x, y+1)})
		}
	}
	return d
}

// decoded rebuilds g through a schedule's JSON and binary encodings, as
// sched.Assemble does for every decoded schedule.
func decoded(t testing.TB, g *grid.Grid) (fromJSON, fromBinary *grid.Grid) {
	t.Helper()
	s := &sched.Schedule{Grid: g, Initial: grid.NewLayout(0, g)}
	js, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := sched.DecodeJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := wire.Binary.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := wire.Binary.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	return sj.Grid, sb.Grid
}

// ruleGrids builds the grids of TestBraidRuleMatchesOracle: open grids,
// reservations made after grid.New, factory grids, defect maps, Clone
// and Healed copies, and each degraded grid rebuilt from its JSON and
// binary schedule encodings.
func ruleGrids(t *testing.T, rng *rand.Rand) []ruleGrid {
	var out []ruleGrid
	add := func(name string, g *grid.Grid) { out = append(out, ruleGrid{name, g}) }
	for _, wh := range [][2]int{{1, 1}, {3, 2}, {5, 5}, {9, 4}, {12, 11}} {
		w, h := wh[0], wh[1]
		add(fmt.Sprintf("open %dx%d", w, h), grid.New(w, h))

		res := grid.New(w, h)
		res.ReserveTile(rng.Intn(res.Tiles()))
		if w > 2 && h > 2 {
			// A region: its interior channels close, its border stays open.
			if err := res.Reserve(0, 0, w/2, h/2); err != nil {
				t.Fatal(err)
			}
		}
		add(fmt.Sprintf("reserved %dx%d", w, h), res)

		edge := grid.New(w, h)
		edge.ReserveTile(edge.TileAt(w-1, 0)) // closes its boundary channels
		add(fmt.Sprintf("boundary tile %dx%d", w, h), edge)

		def := grid.New(w, h)
		if err := def.ApplyDefects(randomDefects(rng, def)); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("defects %dx%d", w, h), def)

		both := res.Clone()
		if err := both.ApplyDefects(randomDefects(rng, both)); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("reserved+defects %dx%d", w, h), both)
		add(fmt.Sprintf("clone %dx%d", w, h), both.Clone())
		add(fmt.Sprintf("healed %dx%d", w, h), both.Healed())
		add(fmt.Sprintf("healed open %dx%d", w, h), grid.New(w, h).Healed())
		fj, fb := decoded(t, both)
		add(fmt.Sprintf("json %dx%d", w, h), fj)
		add(fmt.Sprintf("binary %dx%d", w, h), fb)
	}
	for _, f := range []struct{ n, fw, fh int }{{9, 1, 1}, {20, 2, 2}, {30, 3, 2}} {
		for _, rect := range []bool{false, true} {
			g, err := hwopt.GridWithFactory(f.n, f.fw, f.fh, rect)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("factory %d %dx%d rect=%v", f.n, f.fw, f.fh, rect)
			add(name, g)
			inj, _ := faultinject.Inject(g, 0.1, rng.Int63())
			add(name+" injected", inj)
			fj, fb := decoded(t, inj)
			add(name+" injected json", fj)
			add(name+" injected binary", fb)
		}
	}
	return out
}

// randomWalk returns a lattice walk of n vertices on g from a random
// vertex: each step goes to a random lattice neighbour, so it may
// revisit a vertex but never leaves the lattice.
func randomWalk(rng *rand.Rand, g *grid.Grid, n int) route.Path {
	p := route.Path{rng.Intn(g.NumVertices())}
	for len(p) < n {
		x, y := g.VertexXY(p[len(p)-1])
		d := [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}[rng.Intn(4)]
		nx, ny := x+d[0], y+d[1]
		if nx < 0 || nx > g.W || ny < 0 || ny > g.H {
			continue
		}
		p = append(p, g.VertexID(nx, ny))
	}
	return p
}

// simpleWalk returns a walk of at most n vertices that never revisits a
// vertex: it stops early when every neighbour is taken.
func simpleWalk(rng *rand.Rand, g *grid.Grid, n int) route.Path {
	p := route.Path{rng.Intn(g.NumVertices())}
	seen := map[int]bool{p[0]: true}
	for len(p) < n {
		var next []int
		for _, u := range g.VertexNeighbors(p[len(p)-1], nil) {
			if !seen[u] {
				next = append(next, u)
			}
		}
		if len(next) == 0 {
			break
		}
		u := next[rng.Intn(len(next))]
		seen[u] = true
		p = append(p, u)
	}
	return p
}

// rulePaths derives the walks TestBraidRuleMatchesOracle checks on g
// from a seeded rng: random and simple walks of 1, 12, 13, 64 and 65
// vertices and of random lengths; each simple walk with a vertex
// repeated at every position, by stepping back (every step still
// passes, so only the repeat can fail) and by copying in another of its
// vertices; off-grid ids and non-adjacent steps.
func rulePaths(rng *rand.Rand, g *grid.Grid) []route.Path {
	var out []route.Path
	lengths := []int{1, 2, 12, 13, 64, 65, 100, 2 + rng.Intn(30)}
	for _, n := range lengths {
		out = append(out, randomWalk(rng, g, n), simpleWalk(rng, g, n))
		p := simpleWalk(rng, g, n)
		for i := range p {
			if i >= 2 {
				// p[:i] then a step back to p[i-2], which repeats at
				// position i; then the same walked on back to p[0].
				out = append(out, append(p[:i:i], p[i-2]))
				back := p[:i:i]
				for j := i - 2; j >= 0; j-- {
					back = append(back, p[j])
				}
				out = append(out, back)
			}
			cp := append(route.Path(nil), p...)
			cp[i] = p[rng.Intn(len(p))]
			out = append(out, cp)
		}
		if len(p) > 0 {
			for _, bad := range []int{-1, g.NumVertices(), g.NumVertices() + 7, 1 << 40} {
				cp := append(route.Path(nil), p...)
				cp[rng.Intn(len(cp))] = bad
				out = append(out, cp)
			}
			jump := append(route.Path(nil), p...)
			jump[rng.Intn(len(jump))] = rng.Intn(g.NumVertices())
			out = append(out, jump)
		}
	}
	return append(out, nil, route.Path{})
}

// TestBraidRuleMatchesOracle holds grid.EdgeRoutable, route.Path.Validate
// and sched.CheckBraid to their oracles: the same answer on every
// channel of every grid, and the same accept or reject, with the same
// error text, on every walk and braid.
func TestBraidRuleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	grids := ruleGrids(t, rng)
	walks, braids := 0, 0
	for _, rg := range grids {
		g := rg.g
		channel := func(u, v int) {
			for _, e := range [2][2]int{{u, v}, {v, u}} {
				if got, want := g.EdgeRoutable(e[0], e[1]), oracleEdgeRoutable(g, e[0], e[1]); got != want {
					t.Fatalf("%s: EdgeRoutable(%d, %d) = %v, oracle %v", rg.name, e[0], e[1], got, want)
				}
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			x, y := g.VertexXY(v)
			if x < g.W {
				channel(v, g.VertexID(x+1, y))
			}
			if y < g.H {
				channel(v, g.VertexID(x, y+1))
			}
		}
		for _, p := range rulePaths(rng, g) {
			walks++
			if got, want := errText(p.Validate(g)), errText(oraclePathValidate(p, g)); got != want {
				t.Fatalf("%s: Validate(%v) = %q, oracle %q", rg.name, p, got, want)
			}
			if len(p) == 0 {
				continue
			}
			for k := 0; k < 3; k++ {
				b := sched.Braid{Gate: 0, CtlTile: rng.Intn(g.Tiles()+2) - 1, TgtTile: rng.Intn(g.Tiles()+2) - 1, Path: p}
				if k == 0 && p[0] >= 0 && p[0] < g.NumVertices() && p[len(p)-1] >= 0 && p[len(p)-1] < g.NumVertices() {
					// Anchor on tiles whose corners the walk starts and ends on.
					b.CtlTile, b.TgtTile = cornerTile(g, p[0]), cornerTile(g, p[len(p)-1])
				}
				braids++
				if got, want := errText(sched.CheckBraid(g, b)), errText(oracleCheckBraid(g, b)); got != want {
					t.Fatalf("%s: CheckBraid(%+v) = %q, oracle %q", rg.name, b, got, want)
				}
			}
		}
	}
	t.Logf("%d grids, %d walks, %d braids", len(grids), walks, braids)
}

// cornerTile returns a tile that has vertex v as a corner.
func cornerTile(g *grid.Grid, v int) int {
	x, y := g.VertexXY(v)
	return g.TileAt(min(x, g.W-1), min(y, g.H-1))
}

// FuzzCheckBraid holds sched.CheckBraid to oracleCheckBraid on fuzzed
// grids and paths: same accept or reject, same error text. The grid is
// 1–12 tiles a side; each byte of closed reserves a tile or kills a
// tile, vertex or channel (its top two bits pick which), and each byte
// of steps moves the walk one lattice step (its low two bits pick the
// direction) or, from 0xf0 up, jumps to an arbitrary id that may lie
// off the lattice. Run the seed corpus with `go test`; extend with
// `go test -fuzz=FuzzCheckBraid`.
func FuzzCheckBraid(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{}, uint16(1), []byte{1}, int16(0), int16(2))
	f.Add(uint8(5), uint8(5), []byte{0x03, 0x47, 0x8a, 0xc1}, uint16(7), []byte{1, 2, 3, 0, 1, 1, 2}, int16(6), int16(18))
	f.Add(uint8(4), uint8(4), []byte{0x05}, uint16(0), []byte{1, 1, 1, 3, 3, 3}, int16(0), int16(3))
	f.Add(uint8(2), uint8(2), []byte{}, uint16(4), []byte{1, 2, 3, 0}, int16(0), int16(3))
	f.Add(uint8(8), uint8(3), []byte{0xff, 0x00}, uint16(12), []byte{0xf3, 1, 0xfe}, int16(-1), int16(40))
	f.Fuzz(func(t *testing.T, w, h uint8, closed []byte, start uint16, steps []byte, ctl, tgt int16) {
		g := grid.New(1+int(w)%12, 1+int(h)%12)
		d := &grid.DefectMap{}
		for _, c := range closed {
			i := int(c & 0x3f)
			switch c >> 6 {
			case 0:
				g.ReserveTile(i % g.Tiles())
			case 1:
				d.Tiles = append(d.Tiles, i%g.Tiles())
			case 2:
				d.Vertices = append(d.Vertices, i%g.NumVertices())
			default:
				v := i % g.NumVertices()
				x, y := g.VertexXY(v)
				if x < g.W {
					d.Channels = append(d.Channels, [2]int{v, g.VertexID(x+1, y)})
				} else if y < g.H {
					d.Channels = append(d.Channels, [2]int{v, g.VertexID(x, y+1)})
				}
			}
		}
		if err := g.ApplyDefects(d); err != nil {
			t.Fatal(err)
		}
		p := route.Path{int(start) % (g.NumVertices() + 2)}
		for _, s := range steps {
			if s >= 0xf0 {
				p = append(p, int(s&0x0f)*g.NumVertices()/8-1)
				continue
			}
			last := p[len(p)-1]
			if last < 0 || last >= g.NumVertices() {
				p = append(p, last)
				continue
			}
			x, y := g.VertexXY(last)
			dir := [4][2]int{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}[s&3]
			p = append(p, (y+dir[1])*g.VW()+x+dir[0])
		}
		b := sched.Braid{Gate: 0, CtlTile: int(ctl), TgtTile: int(tgt), Path: p}
		if got, want := errText(sched.CheckBraid(g, b)), errText(oracleCheckBraid(g, b)); got != want {
			t.Fatalf("CheckBraid(%+v) on %s = %q, oracle %q", b, g, got, want)
		}
	})
}
