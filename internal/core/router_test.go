package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hilight/internal/circuit"
	"hilight/internal/grid"
)

func bvCircuit(n int) *circuit.Circuit {
	// Bernstein–Vazirani with an all-ones hidden string: n-1 CXs sharing
	// the ancilla target. No two can braid in the same cycle.
	c := circuit.New("bv", n)
	for q := 0; q < n-1; q++ {
		c.Add1(circuit.H, q)
	}
	c.Add1(circuit.X, n-1)
	c.Add1(circuit.H, n-1)
	for q := 0; q < n-1; q++ {
		c.Add2(circuit.CX, q, n-1)
	}
	return c
}

func isingStep(n int) *circuit.Circuit {
	// One Trotter step of the 1D Ising model: ZZ on even bonds then odd
	// bonds, each ZZ = CX·RZ·CX. Linear interaction graph.
	c := circuit.New("ising", n)
	for _, parity := range []int{0, 1} {
		for i := parity; i+1 < n; i += 2 {
			c.Add2(circuit.CX, i, i+1)
			c.AddRot(circuit.RZ, i+1, 0.1)
			c.Add2(circuit.CX, i, i+1)
		}
	}
	return c
}

func mustMap(t *testing.T, c *circuit.Circuit, g *grid.Grid, sp Spec) *Result {
	t.Helper()
	res, err := Run(c, g, sp, RunOptions{})
	if err != nil {
		t.Fatalf("Run(%s): %v", c.Name, err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("schedule invalid for %s: %v", c.Name, err)
	}
	return res
}

func TestMapBVSerializes(t *testing.T) {
	c := bvCircuit(10)
	g := grid.Rect(10)
	res := mustMap(t, c, g, MustMethod("hilight-map"))
	// All 9 CXs share the ancilla: latency must be exactly 9 (Table 1).
	if res.Latency != 9 {
		t.Errorf("BV-10 latency = %d, want 9", res.Latency)
	}
}

func TestMapIsingStepLatency(t *testing.T) {
	// One Trotter step on a linear layout: even bonds (2 CX layers) +
	// odd bonds (2 CX layers) = 4 cycles, independent of n (Table 1's
	// Ising rows).
	for _, n := range []int{8, 16, 30} {
		c := isingStep(n)
		g := grid.Rect(n)
		res := mustMap(t, c, g, MustMethod("hilight-map"))
		if res.Latency != 4 {
			t.Errorf("Ising step n=%d latency = %d, want 4", n, res.Latency)
		}
	}
}

func TestMapGHZChainWithPattern(t *testing.T) {
	n := 9
	c := circuit.New("ghz", n)
	c.Add1(circuit.H, 0)
	for i := 0; i < n-1; i++ {
		c.Add2(circuit.CX, i, i+1)
	}
	g := grid.Square(n)
	res := mustMap(t, c, g, MustMethod("hilight-map"))
	// The chain serializes (each CX depends on the previous through the
	// shared qubit): latency = n-1 regardless of placement.
	if res.Latency != n-1 {
		t.Errorf("GHZ latency = %d, want %d", res.Latency, n-1)
	}
	// Pattern layout puts consecutive qubits adjacent: every braid is a
	// shared-corner braid occupying exactly one routing vertex.
	if res.PathLen != n-1 {
		t.Errorf("GHZ total path length = %d, want %d on snake layout", res.PathLen, n-1)
	}
}

func TestMapParallelPairs(t *testing.T) {
	// Disjoint pairs (0,1) (2,3) (4,5) (6,7) all braid in one cycle when
	// placed sensibly.
	c := circuit.New("pairs", 8)
	for i := 0; i < 8; i += 2 {
		c.Add2(circuit.CX, i, i+1)
	}
	g := grid.Square(8)
	res := mustMap(t, c, g, MustMethod("hilight-map"))
	if res.Latency != 1 {
		t.Errorf("parallel pairs latency = %d, want 1", res.Latency)
	}
}

func TestMapAllConfigVariants(t *testing.T) {
	c := qftCircuit(8)
	g := grid.Rect(8)
	specs := map[string]Spec{
		"hilight-map":  MustMethod("hilight-map"),
		"hilight-pg":   MustMethod("hilight-pg"),
		"hilight-gm":   MustMethod("hilight-gm"),
		"baseline":     MustMethod("baseline"),
		"random-order": {Ordering: "random"},
		"llg-order":    {Ordering: "llg"},
		"asc":          {Ordering: "ascending"},
		"desc":         {Ordering: "descending"},
		"identity":     {Placement: "identity"},
		"full16":       {Finder: "full-16"},
		"stackdfs":     {Finder: "stack-dfs"},
	}
	for name, sp := range specs {
		res, err := Run(c, g, sp, RunOptions{Rng: rand.New(rand.NewSource(5))})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Schedule.Validate(res.Circuit); err != nil {
			t.Errorf("%s: invalid schedule: %v", name, err)
		}
		if res.Latency <= 0 || res.ResUtil <= 0 {
			t.Errorf("%s: degenerate metrics %+v", name, res)
		}
	}
}

func qftCircuit(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	for i := 0; i < n; i++ {
		c.Add1(circuit.H, i)
		for j := i + 1; j < n; j++ {
			c.Add2(circuit.CX, j, i)
		}
	}
	return c
}

func TestMapEmptyAndOneGateCircuits(t *testing.T) {
	e := circuit.New("empty", 4)
	res := mustMap(t, e, grid.Square(4), MustMethod("hilight-map"))
	if res.Latency != 0 || res.ResUtil != 0 {
		t.Errorf("empty circuit latency=%d resutil=%g", res.Latency, res.ResUtil)
	}
	one := circuit.New("one", 2)
	one.Add2(circuit.CX, 0, 1)
	res = mustMap(t, one, grid.Square(2), MustMethod("hilight-map"))
	if res.Latency != 1 {
		t.Errorf("single gate latency = %d", res.Latency)
	}
}

func TestMapRejectsOversizedCircuit(t *testing.T) {
	c := circuit.New("big", 10)
	g := grid.New(2, 2)
	if _, err := Run(c, g, Spec{}, RunOptions{}); err == nil {
		t.Error("oversized circuit accepted")
	}
}

func TestMapQCOPreservesSemanticsAndHelps(t *testing.T) {
	// The fan pattern from the QCO tests embedded in a mapping run.
	c := circuit.New("fan", 4)
	c.Add2(circuit.CX, 0, 1)
	c.Add2(circuit.CX, 0, 2)
	c.Add2(circuit.CX, 3, 2)
	g := grid.Square(4)
	plain := mustMap(t, c, g, MustMethod("hilight-map"))
	pg := mustMap(t, c, g, MustMethod("hilight-pg"))
	if pg.Latency > plain.Latency {
		t.Errorf("QCO increased latency: %d -> %d", plain.Latency, pg.Latency)
	}
}

func TestMapWithFactoryReservation(t *testing.T) {
	c := qftCircuit(6)
	g := grid.New(3, 3)
	g.ReserveTile(g.TileAt(2, 2))
	res := mustMap(t, c, g, MustMethod("hilight-map"))
	// No braid endpoint may live on the reserved tile.
	for _, layer := range res.Schedule.Layers {
		for _, b := range layer {
			if b.CtlTile == g.TileAt(2, 2) || b.TgtTile == g.TileAt(2, 2) {
				t.Fatal("braid endpoint on reserved tile")
			}
		}
	}
}

// swapHappyAdjuster proposes one adjacent swap on the first cycle to
// exercise the SWAP machinery end to end.
type swapHappyAdjuster struct {
	done bool
}

func (a *swapHappyAdjuster) Propose(st *RouterState) []TileSwap {
	if a.done {
		return nil
	}
	a.done = true
	// Swap the first two adjacent tiles that exist.
	t0 := 0
	if adj, n := st.Grid.CardinalNeighbors(t0); n > 0 {
		return []TileSwap{{T1: t0, T2: adj[0]}}
	}
	return nil
}

func TestMapWithAdjusterSwaps(t *testing.T) {
	c := qftCircuit(6)
	g := grid.Square(6)
	res, err := Run(c, g, MustMethod("hilight-map"), RunOptions{Adjuster: &swapHappyAdjuster{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("schedule with swaps invalid: %v", err)
	}
	if res.Schedule.InsertedBraids() != 3 {
		t.Errorf("inserted braids = %d, want 3", res.Schedule.InsertedBraids())
	}
}

type badAdjuster struct{}

func (badAdjuster) Propose(st *RouterState) []TileSwap {
	return []TileSwap{{T1: 0, T2: st.Grid.Tiles() - 1}}
}

func TestMapRejectsNonAdjacentSwap(t *testing.T) {
	c := qftCircuit(6)
	if _, err := Run(c, grid.Square(6), MustMethod("hilight-map"), RunOptions{Adjuster: badAdjuster{}}); err == nil {
		t.Error("non-adjacent swap accepted")
	}
}

// Property: random circuits map to valid schedules under every preset,
// and latency is bounded below by the per-qubit serialization and above
// by total CX count (plus swap stalls, absent here).
func TestMapScheduleProperty(t *testing.T) {
	presets := []Spec{MustMethod("hilight-map"), MustMethod("hilight-pg"), MustMethod("hilight-gm"), MustMethod("hilight-map-parallel")}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		c := circuit.New("rand", n)
		ng := 1 + rng.Intn(40)
		for i := 0; i < ng; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				c.Add1(circuit.H, a)
				continue
			}
			c.Add2(circuit.CX, a, b)
		}
		g := grid.Rect(n)
		for _, preset := range presets {
			res, err := Run(c, g, preset, RunOptions{Rng: rng})
			if err != nil {
				return false
			}
			if res.Schedule.Validate(res.Circuit) != nil {
				return false
			}
			cx := res.Circuit.CXCount()
			if res.Latency > cx {
				return false
			}
			_, depth := circuit.Layers(res.Circuit)
			if res.Latency < depth && cx > 0 {
				// Latency can never beat the dependency depth.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
