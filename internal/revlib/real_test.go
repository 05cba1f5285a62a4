package revlib

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/sim"
)

func TestParseToyFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "toy3.real"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse("toy3", string(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 3 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// t1 -> X (1 gate), t2 -> CX (1), t3 -> 15-gate network, f2 -> 3 CX.
	if got := c.Len(); got != 1+1+15+3 {
		t.Errorf("gates = %d, want 20", got)
	}
}

func TestParseGateSemantics(t *testing.T) {
	// t1/t2/t3 compose to the expected reversible function; compare the
	// .real circuit against a hand-built equivalent on the statevector.
	src := `
.numvars 3
.variables a b c
.begin
t2 a c
t3 a b c
.end`
	got, err := Parse("sem", src)
	if err != nil {
		t.Fatal(err)
	}
	want := circuit.New("ref", 3)
	want.Add2(circuit.CX, 0, 2)
	// Same Toffoli network the parser emits.
	want.Append(toffoliRef(0, 1, 2)...)
	eq, err := sim.Equivalent(got, want, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("parsed circuit not equivalent to reference")
	}
}

// runBasis applies c to the computational basis state |input⟩, where
// bit q of input is qubit q, and returns the output basis label (the
// circuit must be classical).
func runBasis(t *testing.T, c *circuit.Circuit, input int) int {
	t.Helper()
	s, err := sim.NewState(c.NumQubits)
	if err != nil {
		t.Fatal(err)
	}
	s.Amps[0] = 0
	s.Amps[input] = 1
	for _, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	for i, amp := range s.Amps {
		if math.Abs(real(amp)-1) < 1e-9 && math.Abs(imag(amp)) < 1e-9 {
			return i
		}
	}
	t.Fatalf("output not a basis state")
	return -1
}

// TestAddCCXTruthTable checks the Toffoli network behind t-gates, the
// QASM ccx and the RevLib-style generators against the truth table on
// all 8 basis inputs, with the operands in two orders, and AddMCX with
// 0, 1 and 2 controls against X, CX and Toffoli.
func TestAddCCXTruthTable(t *testing.T) {
	for _, tc := range []struct {
		controls []int
		target   int
	}{
		{nil, 2},
		{[]int{1}, 0},
		{[]int{0, 1}, 2},
		{[]int{2, 0}, 1},
	} {
		mcx := circuit.New("mcx", 3)
		mcx.AddMCX(tc.controls, tc.target)
		circuits := []*circuit.Circuit{mcx}
		if len(tc.controls) == 2 {
			ccx := circuit.New("ccx", 3)
			ccx.AddCCX(tc.controls[0], tc.controls[1], tc.target)
			circuits = append(circuits, ccx)
		}
		mask := 0
		for _, q := range tc.controls {
			mask |= 1 << q
		}
		for _, c := range circuits {
			for in := 0; in < 8; in++ {
				want := in
				if in&mask == mask {
					want ^= 1 << tc.target
				}
				if got := runBasis(t, c, in); got != want {
					t.Errorf("%s(%v; %d) |%03b⟩ -> |%03b⟩, want |%03b⟩", c.Name, tc.controls, tc.target, in, got, want)
				}
			}
		}
	}
}

func toffoliRef(a, b, tg int) []circuit.Gate {
	c := circuit.New("", tg+1)
	c.AddCCX(a, b, tg)
	return c.Gates
}

func TestParseSwapExpansion(t *testing.T) {
	src := `
.numvars 2
.variables a b
.begin
f2 a b
.end`
	c, err := Parse("swap", src)
	if err != nil {
		t.Fatal(err)
	}
	want := circuit.New("ref", 2)
	want.Add2(circuit.SWAP, 0, 1)
	eq, err := sim.Equivalent(c, want.DecomposeSWAPs(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("f2 expansion wrong: %v", c.Gates)
	}
}

func TestParseMultiControlToffoli(t *testing.T) {
	src := `
.numvars 5
.variables a b c d e
.begin
t5 a b c d e
.end`
	c, err := Parse("t5", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.CXCount() == 0 {
		t.Error("no CX structure emitted")
	}
	// The expansion must be mappable end to end.
	res, err := core.Run(c, grid.Rect(5), core.MustMethod("hilight-map"), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatal(err)
	}
}

func TestParseWithoutVariables(t *testing.T) {
	// Files may omit .variables; x0..xN and bare indices both resolve.
	src := `
.numvars 3
.begin
t2 x0 x2
t2 0 1
.end`
	c, err := Parse("anon", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Q1 != 2 || c.Gates[1].Q1 != 1 {
		t.Errorf("operand resolution wrong: %v", c.Gates)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                   // no numvars
		`.numvars 0`,                         // bad count
		`.numvars 2` + "\nt2 a b",            // gate outside .begin
		".numvars 2\n.variables a\n",         // variable count mismatch
		".numvars 2\n.variables a a\n",       // duplicate variable
		".numvars 2\n.begin\nt2 a a\n.end",   // repeated operand
		".numvars 2\n.begin\nt2 a z\n.end",   // unknown variable (no .variables)
		".numvars 2\n.begin\nq2 x0 x1\n.end", // unsupported gate
		".numvars 2\n.begin\nt3 x0 x1\n.end", // arity mismatch
		".numvars 2\n.begin\nt2 x0 x1",       // missing .end
		".variables a b",                     // variables before numvars
	}
	for i, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

func TestParseCommentsAndDirectives(t *testing.T) {
	src := `
# full header
.version 2.0
.mode garbage
.numvars 2
.variables a b
.inputs a b
.outputs a b
.constants --
.garbage --
.begin
t2 a b # inline comment
.end`
	c, err := Parse("hdr", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Gates[0].Kind != circuit.CX {
		t.Errorf("gates = %v", c.Gates)
	}
}
