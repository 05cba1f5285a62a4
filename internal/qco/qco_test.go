package qco

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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

// optimizeWithMaps is Optimize as it was first written, kept as the
// reference for its allocation-lean form: one map per qubit holding
// every layer the qubit ever braided in, one bucket slice per layer,
// and depths taken through circuit.Layers.
func optimizeWithMaps(c *circuit.Circuit) *circuit.Circuit {
	n := len(c.Gates)
	type qubitState struct {
		groupRole  role
		groupFloor int
		groupMax   int
	}
	states := make([]qubitState, c.NumQubits)
	for i := range states {
		states[i] = qubitState{groupRole: roleNone, groupFloor: 0, groupMax: -1}
	}
	layerOf := make([]int, n)
	used := make([]map[int]bool, c.NumQubits)
	for i := range used {
		used[i] = map[int]bool{}
	}
	for i, g := range c.Gates {
		qs := g.Qubits()
		floor := 0
		for _, q := range qs {
			st := &states[q]
			r := gateRole(g, q)
			if r == roleNone {
				continue
			}
			if st.groupRole == roleNone || r != st.groupRole || r == roleBarrier {
				newFloor := st.groupMax + 1
				if st.groupRole == roleNone {
					newFloor = st.groupFloor
				}
				st.groupRole = r
				st.groupFloor = newFloor
				st.groupMax = newFloor - 1
			}
			if st.groupFloor > floor {
				floor = st.groupFloor
			}
		}
		if g.TwoQubit() {
			l := floor
			for used[g.Q0][l] || used[g.Q1][l] {
				l++
			}
			layerOf[i] = l
			used[g.Q0][l] = true
			used[g.Q1][l] = true
		} else {
			layerOf[i] = floor
		}
		for _, q := range qs {
			st := &states[q]
			if gateRole(g, q) == roleNone {
				continue
			}
			if layerOf[i] > st.groupMax {
				st.groupMax = layerOf[i]
			}
		}
	}
	maxLayer := 0
	for _, l := range layerOf {
		if l > maxLayer {
			maxLayer = l
		}
	}
	buckets := make([][]int, maxLayer+1)
	for i, l := range layerOf {
		buckets[l] = append(buckets[l], i)
	}
	out := circuit.New(c.Name, c.NumQubits)
	for _, b := range buckets {
		for _, i := range b {
			out.Gates = append(out.Gates, c.Gates[i])
		}
	}
	_, dOut := circuit.Layers(out)
	_, dIn := circuit.Layers(c)
	if dOut > dIn {
		return c.Clone()
	}
	return out
}

// allKinds lists every gate kind a circuit can hold.
var allKinds = []circuit.Kind{
	circuit.I, circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.S, circuit.Sdg,
	circuit.T, circuit.Tdg, circuit.RX, circuit.RY, circuit.RZ, circuit.U1,
	circuit.U2, circuit.U3, circuit.Measure, circuit.Reset,
	circuit.CX, circuit.CZ, circuit.SWAP,
}

// TestOptimizeMatchesMapReference holds Optimize to optimizeWithMaps,
// gate for gate, on seeded random circuits over every gate kind. Half
// the circuits draw most operands from two qubits, so commuting groups
// run long and a qubit's braid layers form long and broken runs. The
// reference has no work budget; these circuits take at most 0.04 set
// steps per gate, far inside Optimize's.
func TestOptimizeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(11)
		c := circuit.New("rand", n)
		hot := trial%2 == 1
		qubit := func() int {
			if hot && rng.Intn(4) != 0 {
				return rng.Intn(2)
			}
			return rng.Intn(n)
		}
		for size := 1 + rng.Intn(300); len(c.Gates) < size; {
			k := allKinds[rng.Intn(len(allKinds))]
			if !k.TwoQubit() {
				g := circuit.NewGate1(k, qubit())
				g.Params[0] = rng.Float64()
				c.Append(g)
				continue
			}
			a, b := qubit(), qubit()
			if a == b {
				b = (a + 1 + rng.Intn(n-1)) % n
			}
			c.Add2(k, a, b)
		}
		got, want := Optimize(c), optimizeWithMaps(c)
		if got.Name != want.Name || got.NumQubits != want.NumQubits || !slices.Equal(got.Gates, want.Gates) {
			t.Fatalf("trial %d: Optimize differs from the map reference on %v", trial, c.Gates)
		}
	}
}

// TestOptimizeHostileShapeMemory holds Optimize's memory to its gates on
// a circuit whose layers far outnumber any qubit's gates: 100,000 CX on
// qubits 0–1, then cx q[1],q[k] for 4,096 other qubits, whose first
// layers all lie past 100,000. Layer sets sized by depth (a growable
// bitset per qubit) allocated 163 MB here and the map reference 40 MB;
// Optimize must stay within a small multiple of the gate slice (5 MB).
func TestOptimizeHostileShapeMemory(t *testing.T) {
	const chain, fan = 100_000, 4096
	c := circuit.New("hostile", 2+fan)
	c.Gates = make([]circuit.Gate, 0, chain+fan)
	for i := 0; i < chain; i++ {
		c.Add2(circuit.CX, 0, 1)
	}
	for k := 2; k < 2+fan; k++ {
		c.Add2(circuit.CX, 1, k)
	}
	gateBytes := uint64(len(c.Gates)) * uint64(unsafe.Sizeof(circuit.Gate{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := Optimize(c)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Optimize allocated %.1f MB on a %.1f MB gate slice", float64(alloc)/1e6, float64(gateBytes)/1e6)
	if o.Len() != c.Len() {
		t.Fatalf("Optimize returned %d gates, want %d", o.Len(), c.Len())
	}
	if alloc > 2*gateBytes || alloc > 40e6 {
		t.Errorf("Optimize allocated %d bytes, want at most 2× the %d-byte gate slice and under 40 MB", alloc, gateBytes)
	}
}

// TestOptimizeHostileShapeTime holds Optimize to time linear in the
// gates on the two shapes whose layer-set work grows with the square of
// the gates. Gap filling: `cx q[0],q[1]; h q[1]` repeated R times leaves
// qubit 0's open group braiding in R broken runs, and each of R
// `cx q[0],q[2]` then fills the lowest gap and shifts every run above
// it (R = 2^17, a 4.3 MB body). Interleaving: qubit 2's open group
// braids in the layers between qubit 0's, so each of R `cx q[0],q[2]`
// probes past every run of both (R = 2^15). Without the work budget
// these took 27 s and 17 s; each now spends its budget, keeps its
// original order and returns in well under a second.
func TestOptimizeHostileShapeTime(t *testing.T) {
	gapFill := func(r int) *circuit.Circuit {
		c := circuit.New("gap-fill", 3)
		c.Gates = make([]circuit.Gate, 0, 3*r)
		for i := 0; i < r; i++ {
			c.Add2(circuit.CX, 0, 1)
			c.Add1(circuit.H, 1)
		}
		for i := 0; i < r; i++ {
			c.Add2(circuit.CX, 0, 2)
		}
		return c
	}
	interleave := func(r int) *circuit.Circuit {
		c := circuit.New("interleave", 4)
		c.Gates = make([]circuit.Gate, 0, 5*r)
		for i := 0; i < r; i++ {
			c.Add2(circuit.CX, 0, 1) // qubit 0 braids in even layers
			c.Add1(circuit.H, 1)
			c.Add1(circuit.H, 3)
			c.Add2(circuit.CX, 3, 2) // qubit 2 braids in odd layers
		}
		for i := 0; i < r; i++ {
			c.Add2(circuit.CX, 0, 2)
		}
		return c
	}
	for _, c := range []*circuit.Circuit{gapFill(1 << 17), interleave(1 << 15)} {
		start := time.Now()
		o := Optimize(c)
		elapsed := time.Since(start)
		t.Logf("%s: %d gates in %v", c.Name, c.Len(), elapsed)
		if elapsed > 5*time.Second {
			t.Errorf("%s: Optimize took %v on %d gates", c.Name, elapsed, c.Len())
		}
		if !slices.Equal(o.Gates, c.Gates) {
			t.Errorf("%s: Optimize rewrote a circuit past its work budget", c.Name)
		}
	}
	// Below the budget the same shapes are rewritten: the interleaved
	// probes land past both qubits' runs.
	if small := interleave(4); slices.Equal(Optimize(small).Gates, small.Gates) {
		t.Error("interleave(4): Optimize kept the original order of a circuit within its budget")
	}
}
