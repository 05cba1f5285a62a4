package circuit

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{H: "h", CX: "cx", RZ: "rz", Sdg: "sdg", Measure: "measure"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind string = %q", got)
	}
}

func TestKindTwoQubit(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		want := k == CX || k == CZ || k == SWAP
		if got := k.TwoQubit(); got != want {
			t.Errorf("%v.TwoQubit() = %v, want %v", k, got, want)
		}
	}
}

func TestGateAccessors(t *testing.T) {
	g := NewGate2(CX, 3, 7)
	if !g.TwoQubit() || g.Q0 != 3 || g.Q1 != 7 {
		t.Fatalf("CX accessors wrong: %+v", g)
	}
	if got := g.Qubits(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("Qubits() = %v", got)
	}
	if !g.ActsOn(3) || !g.ActsOn(7) || g.ActsOn(5) {
		t.Fatal("ActsOn wrong for CX")
	}
	h := NewGate1(H, 2)
	if h.TwoQubit() || h.Q0 != 2 || len(h.Qubits()) != 1 {
		t.Fatalf("H accessors wrong: %+v", h)
	}
}

func TestGateString(t *testing.T) {
	if got := NewGate2(CX, 0, 1).String(); got != "cx q[0],q[1]" {
		t.Errorf("CX string = %q", got)
	}
	g := NewGate1(RZ, 4)
	g.Params[0] = 0.5
	if got := g.String(); got != "rz(0.5) q[4]" {
		t.Errorf("RZ string = %q", got)
	}
}

func TestAppendValidation(t *testing.T) {
	c := New("t", 3)
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { c.Add1(H, 3) })
	mustPanic(func() { c.Add1(H, -1) })
	mustPanic(func() { c.Add2(CX, 1, 1) })
	mustPanic(func() { c.Append(Gate{Kind: Invalid}) })
	c.Add1(H, 0)
	c.Add2(CX, 0, 2)
	if c.Len() != 2 || c.CXCount() != 1 {
		t.Fatalf("len=%d cx=%d", c.Len(), c.CXCount())
	}
}

func TestValidate(t *testing.T) {
	c := New("v", 2)
	c.Add2(CX, 0, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	c.Gates = append(c.Gates, Gate{Kind: CX, Q0: 0, Q1: 9})
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range operand accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New("c", 2)
	c.Add2(CX, 0, 1)
	d := c.Clone()
	d.Add1(H, 0)
	if c.Len() != 1 || d.Len() != 2 {
		t.Fatalf("clone shares storage: c=%d d=%d", c.Len(), d.Len())
	}
}

func TestDecomposeSWAPs(t *testing.T) {
	c := New("s", 3)
	c.Add1(H, 0)
	c.Add2(SWAP, 0, 2)
	c.Add2(CX, 1, 2)
	d := c.DecomposeSWAPs()
	if d.Len() != 5 {
		t.Fatalf("len = %d, want 5", d.Len())
	}
	wantKinds := []Kind{H, CX, CX, CX, CX}
	for i, g := range d.Gates {
		if g.Kind != wantKinds[i] {
			t.Errorf("gate %d kind = %v, want %v", i, g.Kind, wantKinds[i])
		}
	}
	// SWAP(0,2) -> CX(0,2), CX(2,0), CX(0,2)
	if d.Gates[1] != NewGate2(CX, 0, 2) || d.Gates[2] != NewGate2(CX, 2, 0) || d.Gates[3] != NewGate2(CX, 0, 2) {
		t.Errorf("swap expansion wrong: %v %v %v", d.Gates[1], d.Gates[2], d.Gates[3])
	}
	// The output is sized once from the SWAP count: the circuit and its
	// gate slice, of exact length, however many gates.
	for i := 0; i < 1000; i++ {
		c.Add2(SWAP, i%3, (i+1)%3)
	}
	if allocs := testing.AllocsPerRun(5, func() { d = c.DecomposeSWAPs() }); allocs != 2 {
		t.Errorf("DecomposeSWAPs: %.1f allocs, want 2", allocs)
	}
	if len(d.Gates) != cap(d.Gates) {
		t.Errorf("DecomposeSWAPs: %d gates in a slice of capacity %d", len(d.Gates), cap(d.Gates))
	}
}

func TestInteractionMatrix(t *testing.T) {
	c := New("m", 4)
	c.Add2(CX, 0, 1)
	c.Add2(CX, 1, 0)
	c.Add2(CX, 2, 3)
	c.Add1(H, 2)
	m := InteractionGraph(c)
	if m.Weight(0, 1) != 2 || m.Weight(1, 0) != 2 {
		t.Errorf("Weight(0,1) = %d, want 2", m.Weight(0, 1))
	}
	if m.Weight(2, 3) != 1 || m.Weight(0, 2) != 0 {
		t.Error("interaction counts wrong")
	}
	if m.Degree(0) != 1 || m.Degree(2) != 1 {
		t.Error("degrees wrong")
	}
	if m.WeightedDegree(1) != 2 {
		t.Errorf("WeightedDegree(1) = %d", m.WeightedDegree(1))
	}
}

func TestNeighborsSorted(t *testing.T) {
	c := New("n", 4)
	for i := 0; i < 3; i++ {
		c.Add2(CX, 0, 2)
	}
	c.Add2(CX, 0, 1)
	c.Add2(CX, 0, 3)
	c.Add2(CX, 0, 3)
	m := InteractionGraph(c)
	got := m.Neighbors(0)
	want := []int{2, 3, 1} // weights 3, 2, 1
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestQueueByDegree(t *testing.T) {
	c := New("q", 5)
	// q0 interacts with 1,2,3 (degree 3); q4 isolated.
	c.Add2(CX, 0, 1)
	c.Add2(CX, 0, 2)
	c.Add2(CX, 0, 3)
	c.Add2(CX, 1, 2)
	m := InteractionGraph(c)
	q := m.QueueByDegree()
	if q[0] != 0 {
		t.Errorf("highest-degree qubit = %d, want 0", q[0])
	}
	if q[len(q)-1] != 4 {
		t.Errorf("isolated qubit should sort last, got %v", q)
	}
}

func TestIsLinearChain(t *testing.T) {
	// 0-1-2-3 chain.
	c := New("chain", 4)
	c.Add2(CX, 0, 1)
	c.Add2(CX, 1, 2)
	c.Add2(CX, 2, 3)
	m := InteractionGraph(c)
	ok, order := m.IsLinearChain()
	if !ok {
		t.Fatal("chain not detected")
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	first, last := order[0], order[3]
	if !(first == 0 && last == 3 || first == 3 && last == 0) {
		t.Errorf("chain walk wrong: %v", order)
	}

	// Star is not a chain.
	s := New("star", 4)
	s.Add2(CX, 0, 1)
	s.Add2(CX, 0, 2)
	s.Add2(CX, 0, 3)
	if ok, _ := InteractionGraph(s).IsLinearChain(); ok {
		t.Error("star misdetected as chain")
	}

	// Cycle is not a chain.
	cy := New("cycle", 3)
	cy.Add2(CX, 0, 1)
	cy.Add2(CX, 1, 2)
	cy.Add2(CX, 2, 0)
	if ok, _ := InteractionGraph(cy).IsLinearChain(); ok {
		t.Error("cycle misdetected as chain")
	}

	// Two disjoint edges are not a single chain.
	d := New("disjoint", 4)
	d.Add2(CX, 0, 1)
	d.Add2(CX, 2, 3)
	if ok, _ := InteractionGraph(d).IsLinearChain(); ok {
		t.Error("disjoint edges misdetected as chain")
	}
}

func TestIsLinearChainWithIsolated(t *testing.T) {
	c := New("chain+iso", 5)
	c.Add2(CX, 1, 3)
	c.Add2(CX, 3, 4)
	m := InteractionGraph(c)
	ok, order := m.IsLinearChain()
	if !ok || len(order) != 5 {
		t.Fatalf("ok=%v order=%v", ok, order)
	}
	seen := map[int]bool{}
	for _, q := range order {
		seen[q] = true
	}
	if len(seen) != 5 {
		t.Errorf("order not a permutation: %v", order)
	}
}

func TestDensity(t *testing.T) {
	c := New("d", 3)
	c.Add2(CX, 0, 1)
	m := InteractionGraph(c)
	if got := m.Density(); got < 0.33 || got > 0.34 {
		t.Errorf("density = %g, want 1/3", got)
	}
	full := New("full", 3)
	full.Add2(CX, 0, 1)
	full.Add2(CX, 0, 2)
	full.Add2(CX, 1, 2)
	if got := InteractionGraph(full).Density(); got != 1 {
		t.Errorf("complete graph density = %g", got)
	}
}

func TestQubitLists(t *testing.T) {
	c := New("ql", 3)
	c.Add1(H, 0)     // gate 0
	c.Add2(CX, 0, 1) // gate 1
	c.Add2(CX, 1, 2) // gate 2
	c.Add1(T, 1)     // gate 3
	var ql QubitLists
	ql.Fill(c)
	want := [][]int{{0, 1}, {1, 2, 3}, {2}}
	for q, lst := range ql.Lists {
		if len(lst) != len(want[q]) {
			t.Fatalf("q%d list = %v, want %v", q, lst, want[q])
		}
		for i := range lst {
			if lst[i] != want[q][i] {
				t.Errorf("q%d list = %v, want %v", q, lst, want[q])
			}
		}
	}
}

// TestQubitListsFillSizesOnce pins Fill's allocations: a cold Fill
// counts the entries per qubit and allocates the list headers, the
// counts and one array for every list, however long the lists; and a
// refill reuses that storage and allocates nothing, also when it
// alternates between circuits whose per-qubit counts differ.
func TestQubitListsFillSizesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New("ql", 8)
	for i := 0; i < 500; i++ {
		a, b := rng.Intn(8), rng.Intn(8)
		if a == b {
			c.Add1(H, a)
		} else {
			c.Add2(CX, a, b)
		}
	}
	want := make([][]int, c.NumQubits)
	for i, g := range c.Gates {
		want[g.Q0] = append(want[g.Q0], i)
		if g.TwoQubit() {
			want[g.Q1] = append(want[g.Q1], i)
		}
	}
	var warm QubitLists
	if allocs := testing.AllocsPerRun(5, func() {
		warm = QubitLists{}
		warm.Fill(c)
	}); allocs != 3 {
		t.Errorf("cold Fill: %.1f allocs, want 3", allocs)
	}
	for q := range want {
		if !slices.Equal(warm.Lists[q], want[q]) {
			t.Fatalf("q%d list = %v, want %v", q, warm.Lists[q], want[q])
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { warm.Fill(c) }); allocs != 0 {
		t.Errorf("warm Fill: %.1f allocs, want 0", allocs)
	}
	// The same gates with qubit 0's and qubit 7's roles swapped: every
	// list but those two keeps its length, and those two trade theirs.
	swapped := New("ql-swapped", 8)
	flip := func(q int) int {
		switch q {
		case 0:
			return 7
		case 7:
			return 0
		}
		return q
	}
	for _, g := range c.Gates {
		if g.TwoQubit() {
			swapped.Add2(g.Kind, flip(g.Q0), flip(g.Q1))
		} else {
			swapped.Add1(g.Kind, flip(g.Q0))
		}
	}
	if len(want[0]) == len(want[7]) {
		t.Fatalf("qubits 0 and 7 have %d entries each; the alternation needs counts that differ", len(want[0]))
	}
	if allocs := testing.AllocsPerRun(5, func() {
		warm.Fill(swapped)
		warm.Fill(c)
	}); allocs != 0 {
		t.Errorf("alternating Fill: %.1f allocs, want 0", allocs)
	}
	warm.Fill(swapped)
	if got := warm.Lists[7]; !slices.Equal(got, want[0]) {
		t.Errorf("swapped q7 list = %v, want q0's %v", got, want[0])
	}
}

func TestLayers(t *testing.T) {
	c := New("layers", 4)
	c.Add2(CX, 0, 1) // layer 0
	c.Add2(CX, 2, 3) // layer 0 (disjoint)
	c.Add2(CX, 1, 2) // layer 1 (waits on both)
	c.Add1(H, 0)     // free, rides at qubit 0 availability (1)
	c.Add2(CX, 0, 1) // layer 2
	layerOf, depth := Layers(c)
	wantLayer := []int{0, 0, 1, 1, 2}
	for i, want := range wantLayer {
		if layerOf[i] != want {
			t.Errorf("gate %d layer = %d, want %d", i, layerOf[i], want)
		}
	}
	if depth != 3 {
		t.Errorf("depth = %d, want 3", depth)
	}
}

// Property: interaction matrix is symmetric with zero diagonal, and total
// weight equals twice the CX count, for random circuits.
func TestInteractionMatrixProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		c := New("rand", n)
		for i := 0; i < 50; i++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				c.Add1(H, a)
				continue
			}
			c.Add2(CX, a, b)
		}
		m := InteractionGraph(c)
		total := 0
		for i := 0; i < n; i++ {
			if m.Weight(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				if m.Weight(i, j) != m.Weight(j, i) {
					return false
				}
				total += m.Weight(i, j)
			}
		}
		return total == 2*c.CXCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Layers depth is at least ceil(maxPerQubitCX) and QubitLists
// entries are strictly increasing.
func TestDerivedViewProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		c := New("rand", n)
		for i := 0; i < 80; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2(CX, a, b)
			}
		}
		var ql QubitLists
		ql.Fill(c)
		maxPer := 0
		for q, lst := range ql.Lists {
			for i := 1; i < len(lst); i++ {
				if lst[i] <= lst[i-1] {
					return false
				}
			}
			cxq := 0
			for _, gi := range lst {
				if c.Gates[gi].TwoQubit() {
					cxq++
				}
			}
			if cxq > maxPer {
				maxPer = cxq
			}
			_ = q
		}
		_, depth := Layers(c)
		return depth >= maxPer
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
