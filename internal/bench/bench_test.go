package bench

import (
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/qasm"
)

func TestQFTShape(t *testing.T) {
	for _, n := range []int{5, 10, 16} {
		c := QFT(n)
		if c.Len() != n*n {
			t.Errorf("QFT(%d) gates = %d, want %d", n, c.Len(), n*n)
		}
		if c.CXCount() != n*(n-1)/2 {
			t.Errorf("QFT(%d) CX = %d, want %d", n, c.CXCount(), n*(n-1)/2)
		}
		m := circuit.InteractionGraph(c)
		if m.Density() != 1 {
			t.Errorf("QFT(%d) interaction graph not complete", n)
		}
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestBVShape(t *testing.T) {
	for _, n := range []int{10, 100} {
		c := BV(n)
		if c.Len() != 3*n-1 {
			t.Errorf("BV(%d) gates = %d, want %d", n, c.Len(), 3*n-1)
		}
		if c.CXCount() != n-1 {
			t.Errorf("BV(%d) CX = %d", n, c.CXCount())
		}
		// Star interaction graph: ancilla degree n-1, others 1.
		m := circuit.InteractionGraph(c)
		if m.Degree(n-1) != n-1 {
			t.Errorf("BV(%d) ancilla degree = %d", n, m.Degree(n-1))
		}
	}
}

func TestCCShape(t *testing.T) {
	c := CC(11)
	if c.Len() != 20 || c.CXCount() != 10 {
		t.Errorf("CC(11): %d gates, %d CX", c.Len(), c.CXCount())
	}
}

func TestIsingShape(t *testing.T) {
	c := Ising(10, 5)
	m := circuit.InteractionGraph(c)
	ok, _ := m.IsLinearChain()
	if !ok {
		t.Error("Ising interaction graph not a chain")
	}
	if c.CXCount() != 5*2*9 {
		t.Errorf("Ising CX = %d", c.CXCount())
	}
}

func TestQAOAShape(t *testing.T) {
	c := QAOA(100, 180, 4)
	if c.NumQubits != 100 {
		t.Error("qubit count")
	}
	if got := c.CXCount(); got != 4*180*2 {
		t.Errorf("QAOA CX = %d, want %d", got, 4*180*2)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	// Deterministic: two builds identical.
	d := QAOA(100, 180, 4)
	for i := range c.Gates {
		if c.Gates[i] != d.Gates[i] {
			t.Fatal("QAOA not deterministic")
		}
	}
}

func TestBWTShape(t *testing.T) {
	c := BWT(5, 1)
	if c.NumQubits != 126 {
		t.Errorf("BWT(5) qubits = %d, want 126", c.NumQubits)
	}
	// Edges: 2 trees × (nodes-1) + 2^depth weld = 2*62 + 32 = 156, each
	// contributing 2 CX per step.
	if got := c.CXCount(); got != 2*156 {
		t.Errorf("BWT CX = %d, want %d", got, 2*156)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestShorShape(t *testing.T) {
	c := Shor(471, 36600)
	if c.NumQubits != 471 || c.Len() != 36600 {
		t.Errorf("Shor: %d qubits, %d gates", c.NumQubits, c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRevLibCalibration(t *testing.T) {
	c := RevLib("sqrt8_260", 12, 1690)
	if c.Len() != 1690 || c.NumQubits != 12 {
		t.Errorf("RevLib: %d gates on %d qubits", c.Len(), c.NumQubits)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	// Deterministic per name.
	d := RevLib("sqrt8_260", 12, 1690)
	for i := range c.Gates {
		if c.Gates[i] != d.Gates[i] {
			t.Fatal("RevLib not deterministic")
		}
	}
	// Different names diverge.
	e := RevLib("squar5_261", 12, 1690)
	same := true
	for i := range c.Gates {
		if c.Gates[i] != e.Gates[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different benchmarks produced identical circuits")
	}
	if c.CXCount() == 0 {
		t.Error("no CX gates generated")
	}
}

func TestRevLibTwoQubits(t *testing.T) {
	c := RevLib("tiny", 2, 30)
	if c.Len() != 30 {
		t.Errorf("len = %d", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPatternFriendlyGenerators(t *testing.T) {
	for name, c := range map[string]*circuit.Circuit{
		"ghz":   GHZ(12),
		"ising": Ising(10, 2),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		m := circuit.InteractionGraph(c)
		if ok, _ := m.IsLinearChain(); !ok {
			t.Errorf("%s: interaction graph not a chain", name)
		}
	}
}

func TestTable1Registry(t *testing.T) {
	entries := Table1()
	if len(entries) != 36 {
		t.Fatalf("Table1 has %d entries, want 36", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.N <= 0 || e.Gates <= 0 || e.Build == nil {
			t.Errorf("entry %q incomplete", e.Name)
		}
	}
	// Spot-check generated sizes against metadata for the exact ones.
	for _, name := range []string{"4gt11_82", "urf2_277", "QFT-100", "BV-100", "CC-100"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		c := e.Build()
		if c.NumQubits != e.N {
			t.Errorf("%s qubits %d != %d", name, c.NumQubits, e.N)
		}
		if c.Len() != e.Gates {
			t.Errorf("%s gates %d != %d", name, c.Len(), e.Gates)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestTable1AllBuildable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every Table 1 circuit")
	}
	for _, e := range Table1() {
		c := e.Build()
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if c.NumQubits != e.N {
			t.Errorf("%s: qubits %d != %d", e.Name, c.NumQubits, e.N)
		}
		// Every circuit must survive the QASM round trip gate for gate,
		// rotation angles included, so it can be sent as QASM.
		back, err := qasm.Parse(e.Name, qasm.Format(c))
		if err != nil {
			t.Errorf("%s: QASM round trip: %v", e.Name, err)
			continue
		}
		if len(back.Gates) != len(c.Gates) {
			t.Errorf("%s: QASM round trip has %d gates, want %d", e.Name, len(back.Gates), len(c.Gates))
			continue
		}
		for i, g := range c.Gates {
			if back.Gates[i] != g {
				t.Errorf("%s: QASM round trip gate %d = %+v, want %+v", e.Name, i, back.Gates[i], g)
				break
			}
		}
	}
}
