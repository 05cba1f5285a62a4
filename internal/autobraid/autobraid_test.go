package autobraid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
)

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

func clusteredCircuit(n int) *circuit.Circuit {
	// Heavy pairs (0,n-1), (1,n-2), ... force the partitioner to group
	// distant-index qubits.
	c := circuit.New("cluster", n)
	for i := 0; i < n/2; i++ {
		for k := 0; k < 4; k++ {
			c.Add2(circuit.CX, i, n-1-i)
		}
	}
	return c
}

func TestPartitionPlacementComplete(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16, 23} {
		c := qftCircuit(n)
		g := grid.Rect(n)
		l := PartitionPlacement{Rng: rand.New(rand.NewSource(1))}.Place(c, g)
		if err := l.Validate(g); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if slices.Contains(l.QubitTile, -1) {
			t.Errorf("n=%d: incomplete layout", n)
		}
	}
}

func TestPartitionPlacementGroupsHeavyPairs(t *testing.T) {
	c := clusteredCircuit(16)
	g := grid.Square(16)
	l := PartitionPlacement{Rng: rand.New(rand.NewSource(3))}.Place(c, g)
	idl := identityLayout(c, g)
	if got, want := pairCost(c, g, l), pairCost(c, g, idl); got >= want {
		t.Errorf("partition cost %d not below identity cost %d", got, want)
	}
}

func identityLayout(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	l := grid.NewLayout(c.NumQubits, g)
	for q := 0; q < c.NumQubits; q++ {
		l.Assign(q, q, g)
	}
	return l
}

func pairCost(c *circuit.Circuit, g *grid.Grid, l *grid.Layout) int {
	cost := 0
	for _, gate := range c.Gates {
		if gate.TwoQubit() {
			cost += g.Dist(l.QubitTile[gate.Q0], l.QubitTile[gate.Q1])
		}
	}
	return cost
}

func TestPartitionPlacementRespectsReserved(t *testing.T) {
	c := qftCircuit(7)
	g := grid.New(3, 3)
	g.ReserveTile(g.TileAt(1, 1))
	g.ReserveTile(g.TileAt(2, 2))
	l := PartitionPlacement{Rng: rand.New(rand.NewSource(1))}.Place(c, g)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.QubitTile, -1) {
		t.Fatal("incomplete")
	}
}

func TestSPAndFullProduceValidSchedules(t *testing.T) {
	for _, n := range []int{6, 10, 16} {
		c := qftCircuit(n)
		g := grid.Rect(n)
		for _, name := range []string{"autobraid-sp", "autobraid-full"} {
			res, err := core.Run(c, g, core.MustMethod(name),
				core.RunOptions{Rng: rand.New(rand.NewSource(2))})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Fatalf("%s n=%d: invalid schedule: %v", name, n, err)
			}
		}
	}
}

func TestFullInsertsSwapsOnSpreadWorkload(t *testing.T) {
	// Repeated interaction between qubits that identity-style partition
	// seeding keeps apart long enough for the adjuster to fire.
	n := 25
	c := circuit.New("spread", n)
	for k := 0; k < 30; k++ {
		c.Add2(circuit.CX, 0, n-1)
		c.Add2(circuit.CX, 1, n-2)
	}
	g := grid.Square(n)
	res, err := core.Run(c, g, core.Spec{}, core.RunOptions{
		Placement: identityMethod{},
		Adjuster:  NewSwapAdjuster(2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if res.Schedule.InsertedBraids() == 0 {
		t.Error("adjuster never fired on a spread workload")
	}
}

// identityMethod forces a bad layout so the swap adjuster has work.
type identityMethod struct{}

func (identityMethod) Name() string { return "identity-test" }
func (identityMethod) Place(c *circuit.Circuit, g *grid.Grid) *grid.Layout {
	return identityLayout(c, g)
}

func TestSwapAdjusterHonorsPeriodAndDistance(t *testing.T) {
	g := grid.Square(16)
	c := circuit.New("x", 16)
	c.Add2(circuit.CX, 0, 15)
	layout := identityLayout(c, g)
	st := &core.RouterState{
		Grid: g, Layout: layout, Circuit: c, Cycle: 0,
		Pending: [][]int{0: {0}, 15: {0}},
	}
	for len(st.Pending) < 16 {
		st.Pending = append(st.Pending, nil)
	}
	a := NewSwapAdjuster(4, 3)
	sw := a.Propose(st)
	if len(sw) != 1 {
		t.Fatalf("expected one swap, got %v", sw)
	}
	if g.Dist(sw[0].T1, sw[0].T2) != 1 {
		t.Fatal("swap not adjacent")
	}
	// Second call within the period must be silent.
	st.Cycle = 2
	if sw := a.Propose(st); sw != nil {
		t.Errorf("adjuster ignored period: %v", sw)
	}
	// Close pairs are ignored.
	b := NewSwapAdjuster(1, 3)
	c2 := circuit.New("near", 16)
	c2.Add2(circuit.CX, 0, 1)
	st2 := &core.RouterState{
		Grid: g, Layout: identityLayout(c2, g), Circuit: c2, Cycle: 10,
		Pending: make([][]int, 16),
	}
	st2.Pending[0] = []int{0}
	st2.Pending[1] = []int{0}
	if sw := b.Propose(st2); sw != nil {
		t.Errorf("adjuster proposed swap for adjacent pair: %v", sw)
	}
}

// Property: both AutoBraid variants always produce schedules that
// validate, on random circuits.
func TestAutoBraidScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		c := circuit.New("rand", n)
		for i := 0; i < 1+rng.Intn(30); i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2(circuit.CX, a, b)
			}
		}
		g := grid.Rect(n)
		for _, name := range []string{"autobraid-sp", "autobraid-full"} {
			res, err := core.Run(c, g, core.MustMethod(name), core.RunOptions{Rng: rng})
			if err != nil || res.Schedule.Validate(res.Circuit) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
