package place

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"hilight/internal/circuit"
	"hilight/internal/grid"
)

func chainCircuit(n int) *circuit.Circuit {
	c := circuit.New("chain", n)
	for i := 0; i < n-1; i++ {
		c.Add2(circuit.CX, i, i+1)
	}
	return c
}

func qftLike(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	for i := 0; i < n; i++ {
		c.Add1(circuit.H, i)
		for j := i + 1; j < n; j++ {
			c.Add2(circuit.CX, j, i)
		}
	}
	return c
}

func starCircuit(n int) *circuit.Circuit {
	c := circuit.New("star", n)
	for i := 0; i < n-1; i++ {
		c.Add2(circuit.CX, i, n-1)
	}
	return c
}

func allMethods() []Method {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	return []Method{
		Identity{},
		Random{Rng: rng()},
		Proximity{},
		Pattern{Rng: rng()},
		GM{Rng: rng()},
		GMWP{Rng: rng()},
		HiLight{Rng: rng()},
	}
}

func TestAllMethodsProduceCompleteValidLayouts(t *testing.T) {
	circs := []*circuit.Circuit{chainCircuit(9), qftLike(8), starCircuit(7), circuit.New("empty", 5)}
	for _, c := range circs {
		g := grid.Square(c.NumQubits)
		for _, m := range allMethods() {
			l := m.Place(c, g)
			if err := l.Validate(g); err != nil {
				t.Errorf("%s on %s: %v", m.Name(), c.Name, err)
			}
			if slices.Contains(l.QubitTile, -1) {
				t.Errorf("%s on %s: incomplete layout", m.Name(), c.Name)
			}
		}
	}
}

func TestMethodsRespectReservedTiles(t *testing.T) {
	c := qftLike(6)
	g := grid.New(3, 3)
	g.ReserveTile(g.TileAt(1, 1)) // reserve the center
	for _, m := range allMethods() {
		l := m.Place(c, g)
		if err := l.Validate(g); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
		if q := l.TileQubit[g.TileAt(1, 1)]; q != -1 {
			t.Errorf("%s placed qubit %d on reserved tile", m.Name(), q)
		}
	}
}

func TestIdentityPlacesInOrder(t *testing.T) {
	c := chainCircuit(4)
	g := grid.New(2, 2)
	l := Identity{}.Place(c, g)
	for q := 0; q < 4; q++ {
		if l.QubitTile[q] != q {
			t.Errorf("qubit %d on tile %d", q, l.QubitTile[q])
		}
	}
}

func TestProximitySeedsCenterWithHeaviestQubit(t *testing.T) {
	c := starCircuit(9) // qubit 8 interacts with everyone
	g := grid.Square(9) // 3x3, center tile 4
	l := Proximity{}.Place(c, g)
	if l.QubitTile[8] != g.Center() {
		t.Errorf("hub qubit on tile %d, center is %d", l.QubitTile[8], g.Center())
	}
	// All partners should hug the hub: average distance well below random.
	total := 0
	for q := 0; q < 8; q++ {
		total += g.Dist(l.QubitTile[q], l.QubitTile[8])
	}
	if total > 12 { // 4 at distance 1, 4 at distance 2 = 12 for a 3x3
		t.Errorf("partners too far from hub: total distance %d", total)
	}
}

func TestProximityPlacesHeavyPairsAdjacent(t *testing.T) {
	// Two qubits with an overwhelming interaction must end up adjacent.
	c := circuit.New("pair", 6)
	for i := 0; i < 10; i++ {
		c.Add2(circuit.CX, 0, 1)
	}
	c.Add2(circuit.CX, 2, 3)
	g := grid.Square(6)
	l := Proximity{}.Place(c, g)
	if d := g.Dist(l.QubitTile[0], l.QubitTile[1]); d != 1 {
		t.Errorf("heavy pair at distance %d", d)
	}
}

func TestPatternMatchesChain(t *testing.T) {
	c := chainCircuit(9)
	g := grid.Square(9)
	l, ok := Pattern{}.Match(c, g)
	if !ok {
		t.Fatal("chain not matched")
	}
	// Consecutive chain qubits must be on adjacent tiles (snake layout).
	for i := 0; i < 8; i++ {
		if d := g.Dist(l.QubitTile[i], l.QubitTile[i+1]); d != 1 {
			t.Errorf("chain qubits %d,%d at distance %d", i, i+1, d)
		}
	}
}

func TestPatternMatchesDenseGraph(t *testing.T) {
	c := qftLike(8)
	g := grid.Square(8)
	if _, ok := (Pattern{Rng: rand.New(rand.NewSource(3))}).Match(c, g); !ok {
		t.Error("complete graph not matched as dynamic pattern")
	}
}

func TestPatternRejectsStar(t *testing.T) {
	c := starCircuit(8)
	g := grid.Square(8)
	if _, ok := (Pattern{}).Match(c, g); ok {
		t.Error("star circuit wrongly pattern-matched")
	}
}

func TestGMBeatsIdentityOnClusteredCircuit(t *testing.T) {
	// Pairs (0,1), (2,3), (4,5), ... interact heavily; identity placement
	// on a 4x4 grid keeps pairs adjacent in a row except across row
	// boundaries. Build pairs that identity splits across rows.
	c := circuit.New("cluster", 16)
	for i := 0; i < 8; i++ {
		a, b := i, 15-i
		for k := 0; k < 5; k++ {
			c.Add2(circuit.CX, a, b)
		}
	}
	g := grid.Square(16)
	m := circuit.InteractionGraph(c)
	idCost := Score(Identity{}.Place(c, g), m, g)
	gmCost := Score(GM{Rng: rand.New(rand.NewSource(1))}.Place(c, g), m, g)
	if gmCost >= idCost {
		t.Errorf("GM cost %d not better than identity %d", gmCost, idCost)
	}
	proxCost := Score(Proximity{}.Place(c, g), m, g)
	if proxCost >= idCost {
		t.Errorf("Proximity cost %d not better than identity %d", proxCost, idCost)
	}
}

func TestHiLightFallsBackToProximity(t *testing.T) {
	c := starCircuit(8)
	g := grid.Square(8)
	h := HiLight{Rng: rand.New(rand.NewSource(2))}.Place(c, g)
	p := Proximity{}.Place(c, g)
	for q := range h.QubitTile {
		if h.QubitTile[q] != p.QubitTile[q] {
			t.Fatalf("HiLight fallback differs from Proximity at qubit %d", q)
		}
	}
}

// Property: every method yields a bijection program-qubits -> tiles for
// random circuits on random grids.
func TestPlacementBijectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		c := circuit.New("rand", n)
		for i := 0; i < n*3; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2(circuit.CX, a, b)
			}
		}
		g := grid.Rect(n)
		for _, m := range allMethods() {
			l := m.Place(c, g)
			if l.Validate(g) != nil || slices.Contains(l.QubitTile, -1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// scanClosestFree is FindClosestUnmappedLoc as a scan of every tile:
// the usable tile no qubit holds at the least distance from ref, least
// index first; -1 when there is none. ringSearch is held to it.
func scanClosestFree(g *grid.Grid, l *grid.Layout, ref int) int {
	best, bestD := -1, 1<<30
	for t := 0; t < g.Tiles(); t++ {
		if !g.Usable(t) || l.TileQubit[t] != -1 {
			continue
		}
		if d := g.Dist(ref, t); d < bestD {
			best, bestD = t, d
		}
	}
	return best
}

// TestRingSearchMatchesScan holds the resumed ring search to the scan of
// every tile on seeded random grids with a reserved block and defective
// tiles, as the grid fills in a random order: between fills, searches
// from a few reused references (which resume) and from fresh random ones
// must return the tile the scan returns, until no free tile is left.
func TestRingSearchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		g := grid.New(1+rng.Intn(14), 1+rng.Intn(14))
		if rng.Intn(2) == 0 && g.W > 2 && g.H > 2 {
			x, y := rng.Intn(g.W-1), rng.Intn(g.H-1)
			if err := g.Reserve(x, y, x+rng.Intn(2), y+rng.Intn(2)); err != nil {
				t.Fatal(err)
			}
		}
		var dead grid.DefectMap
		for i := rng.Intn(g.Tiles()/4 + 1); i > 0; i-- {
			if tile := rng.Intn(g.Tiles()); !slices.Contains(dead.Tiles, tile) {
				dead.Tiles = append(dead.Tiles, tile)
			}
		}
		if err := g.ApplyDefects(&dead); err != nil {
			t.Fatal(err)
		}
		l := grid.NewLayout(g.Capacity(), g)
		rs := newRingSearch(g, l)
		refs := []int{rng.Intn(g.Tiles()), rng.Intn(g.Tiles()), rng.Intn(g.Tiles())}
		for q := 0; ; q++ {
			for i := 0; i < 3; i++ {
				ref := refs[rng.Intn(len(refs))]
				if i == 2 {
					ref = rng.Intn(g.Tiles())
				}
				if got, want := rs.closest(ref), scanClosestFree(g, l, ref); got != want {
					t.Fatalf("trial %d (%dx%d, %d placed): closest(%d) = %d, want %d", trial, g.W, g.H, q, ref, got, want)
				}
			}
			if q == g.Capacity() {
				break
			}
			// Fill the tile a search picks, as Proximity does, or a random
			// free one, which skips ahead of every reference's ring.
			next := rs.closest(refs[rng.Intn(len(refs))])
			if rng.Intn(3) == 0 {
				for next = rng.Intn(g.Tiles()); !g.Usable(next) || l.TileQubit[next] != -1; next = rng.Intn(g.Tiles()) {
				}
			}
			l.Assign(q, next, g)
		}
	}
}

// TestWidePlacementMemory places a 4,096-qubit circuit of four CX that
// no pattern matches (a star on five qubits, the rest idle) through
// HiLight's placement: its memory follows the circuit and the grid, not
// the width squared, so it allocates under 4 MB (an n² circGraph alone
// is 134 MB).
func TestWidePlacementMemory(t *testing.T) {
	c := circuit.New("wide-star", 4096)
	for q := 1; q <= 4; q++ {
		c.Add2(circuit.CX, 0, q)
	}
	g := grid.Rect(c.NumQubits)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := HiLight{}.Place(c, g)
	runtime.ReadMemStats(&after)
	if err := l.Validate(g); err != nil || slices.Contains(l.QubitTile, -1) {
		t.Fatalf("layout not complete and valid: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4_000_000 {
		t.Errorf("placement allocated %d bytes, want under 4 MB", got)
	}
}
