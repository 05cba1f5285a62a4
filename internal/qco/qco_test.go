package qco

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hilight/internal/circuit"
	"hilight/internal/sim"
)

func TestCommuteRules(t *testing.T) {
	cx := circuit.NewGate2
	g1 := circuit.NewGate1
	cases := []struct {
		a, b circuit.Gate
		want bool
	}{
		// Fig. 6a: shared control.
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 0, 2), true},
		// Fig. 6b: shared target.
		{cx(circuit.CX, 1, 0), cx(circuit.CX, 2, 0), true},
		// Control of one is target of the other: no.
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 1, 2), false},
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 2, 0), false},
		// Same gate twice commutes (would cancel, but ordering-wise fine).
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 0, 1), true},
		// Reversed CX does not.
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 1, 0), false},
		// Disjoint gates commute.
		{cx(circuit.CX, 0, 1), cx(circuit.CX, 2, 3), true},
		// Z-diagonal 1Q on the control commutes.
		{g1(circuit.Z, 0), cx(circuit.CX, 0, 1), true},
		{g1(circuit.T, 0), cx(circuit.CX, 0, 1), true},
		// Z on the target does not.
		{g1(circuit.Z, 1), cx(circuit.CX, 0, 1), false},
		// X on the target commutes; X on the control does not.
		{g1(circuit.X, 1), cx(circuit.CX, 0, 1), true},
		{g1(circuit.X, 0), cx(circuit.CX, 0, 1), false},
		// H blocks on either side.
		{g1(circuit.H, 0), cx(circuit.CX, 0, 1), false},
		{g1(circuit.H, 1), cx(circuit.CX, 0, 1), false},
		// CZ commutes with CZ and with CX on the control side.
		{cx(circuit.CZ, 0, 1), cx(circuit.CZ, 1, 2), true},
		{cx(circuit.CZ, 0, 1), cx(circuit.CX, 1, 2), true},
		{cx(circuit.CZ, 0, 1), cx(circuit.CX, 2, 1), false},
	}
	for i, c := range cases {
		if got := Commute(c.a, c.b); got != c.want {
			t.Errorf("case %d: Commute(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := Commute(c.b, c.a); got != c.want {
			t.Errorf("case %d: Commute not symmetric", i)
		}
	}
}

func TestOptimizeHoistsSharedControlChain(t *testing.T) {
	// CX(0,1); CX(0,2); CX(0,3): all share control 0 and commute, but one
	// braid per qubit per cycle keeps depth 3. Insert an independent pair
	// blocked behind the chain by a shared target:
	//   CX(0,1); CX(0,2); CX(4,5) — depth 2 already. Use the shape from
	// Fig. 6: g1=CX(0,1), g2=CX(0,2), g3=CX(2,3). Naively g3 waits for
	// g2 (qubit 2); QCO may run g2 before g1, letting g3 start earlier
	// only if order changes help. Check depth does not increase and
	// semantics hold.
	c := circuit.New("fig6", 4)
	c.Add2(circuit.CX, 0, 1)
	c.Add2(circuit.CX, 0, 2)
	c.Add2(circuit.CX, 2, 3)
	o := Optimize(c)
	if got, want := o.Len(), c.Len(); got != want {
		t.Fatalf("gate count changed: %d -> %d", want, got)
	}
	if Depth(o) > Depth(c) {
		t.Errorf("depth increased: %d -> %d", Depth(c), Depth(o))
	}
	eq, err := sim.Equivalent(c, o, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("optimized circuit not equivalent")
	}
}

func TestOptimizeReducesDepthOnFanPattern(t *testing.T) {
	// Program order: CX(0,1); CX(0,2); CX(3,1).
	// Naive ASAP: CX(3,1) waits for CX(0,1) on qubit 1 -> depth 2 with
	// layers {g0,?}, but g1 shares qubit 0 with g0 so naive depth is
	// 2: [g0, g1 after], g2 after g0. Actually naive: g0 layer0,
	// g1 layer1 (qubit0), g2 layer1 (qubit1 free at 1). Depth 2.
	// With commutation, g1 commutes with g0 (shared control) but still
	// cannot share a cycle (qubit 0 braids once per cycle). No change.
	// Instead use targets: CX(1,0); CX(2,0) share target 0: still one
	// braid per qubit per cycle. Depth cannot drop below serialization.
	// The real win: reordering lets an unrelated gate fill the bubble:
	//   g0=CX(0,1) g1=CX(2,3) g2=CX(0,3)
	// Naive: g2 waits on g0 (q0) and g1 (q3): depth 2. Commutation: g2
	// shares control 0 with g0 and target 3 with g1 -> commutes with
	// both! It can go to layer 0? No: q0 braids in layer 0 (g0).
	// Construct a case where QCO strictly wins:
	//   g0=CX(0,1) g1=CX(0,2) g2=CX(3,2)
	// Naive: g1 layer1 (q0 busy l0), g2 layer2 (q2 busy l1). Depth 3.
	// QCO: g1 and g2 share target 2 and commute; g2 can run at layer 0
	// (q3,q2 free), g1 at layer 1. Depth 2.
	c := circuit.New("win", 4)
	c.Add2(circuit.CX, 0, 1)
	c.Add2(circuit.CX, 0, 2)
	c.Add2(circuit.CX, 3, 2)
	if Depth(c) != 3 {
		t.Fatalf("naive depth = %d, want 3", Depth(c))
	}
	o := Optimize(c)
	if Depth(o) != 2 {
		t.Fatalf("optimized depth = %d, want 2 (%v)", Depth(o), o.Gates)
	}
	eq, err := sim.Equivalent(c, o, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("optimized circuit not equivalent")
	}
}

func TestOptimizePreservesGateMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 6, 60)
	o := Optimize(c)
	count := map[circuit.Gate]int{}
	for _, g := range c.Gates {
		count[g]++
	}
	for _, g := range o.Gates {
		count[g]--
	}
	for g, n := range count {
		if n != 0 {
			t.Errorf("gate %v multiset changed by %d", g, n)
		}
	}
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("rand", n)
	oneQ := []circuit.Kind{circuit.H, circuit.X, circuit.Z, circuit.S, circuit.T, circuit.RZ}
	for i := 0; i < gates; i++ {
		switch rng.Intn(3) {
		case 0:
			k := oneQ[rng.Intn(len(oneQ))]
			if k == circuit.RZ {
				c.AddRot(k, rng.Intn(n), rng.Float64())
			} else {
				c.Add1(k, rng.Intn(n))
			}
		default:
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			c.Add2(circuit.CX, a, b)
		}
	}
	return c
}

// Property: Optimize never increases depth and always preserves exact
// semantics (statevector equality on two probe states).
func TestOptimizeSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 40)
		o := Optimize(c)
		if o.Len() != c.Len() {
			return false
		}
		if Depth(o) > Depth(c) {
			return false
		}
		eq, err := sim.Equivalent(c, o, 1e-9)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for CX-only circuits the GF(2) map is preserved at widths the
// statevector cannot reach.
func TestOptimizeGF2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		c := circuit.New("cx", n)
		for i := 0; i < 200; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2(circuit.CX, a, b)
			}
		}
		o := Optimize(c)
		ma, err1 := sim.GF2Of(c)
		mb, err2 := sim.GF2Of(o)
		return err1 == nil && err2 == nil && ma.Equal(mb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: at Clifford-circuit widths far beyond the statevector
// oracle, Optimize preserves semantics exactly (tableau check).
func TestOptimizeCliffordAtScale(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(150)
		c := circuit.New("clifford", n)
		kinds := []circuit.Kind{circuit.H, circuit.S, circuit.Z, circuit.X}
		for i := 0; i < 400; i++ {
			if rng.Intn(3) == 0 {
				c.Add1(kinds[rng.Intn(len(kinds))], rng.Intn(n))
				continue
			}
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2([]circuit.Kind{circuit.CX, circuit.CZ}[rng.Intn(2)], a, b)
			}
		}
		eq, err := sim.CliffordEquivalent(c, Optimize(c))
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeEmptyAndSingleGate(t *testing.T) {
	e := circuit.New("empty", 3)
	if o := Optimize(e); o.Len() != 0 || o.NumQubits != 3 {
		t.Error("empty circuit mangled")
	}
	s := circuit.New("one", 2)
	s.Add2(circuit.CX, 0, 1)
	if o := Optimize(s); o.Len() != 1 || o.Gates[0] != s.Gates[0] {
		t.Error("single gate mangled")
	}
}
