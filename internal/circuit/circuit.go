// Package circuit defines the quantum-circuit intermediate representation
// shared by every stage of the HiLight framework: the gate model, the
// circuit container, per-qubit gate lists used by the routing loop
// (Alg. 2 of the paper), and the CX interaction matrix used by the
// qubit-proximity initial placement (Alg. 1).
//
// The mapping problem only depends on gate order and on which qubit pairs
// interact, so the IR is deliberately small: a flat gate slice plus derived
// views. All derived structures index into Circuit.Gates by position.
package circuit

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the gate kinds understood by the framework. Single-qubit
// kinds route in zero braiding steps; two-qubit kinds require a braiding
// path. SWAP is accepted at the IR level but is decomposed into three CX
// gates before mapping (the double-defect SC has no native SWAP).
type Kind uint8

// Gate kinds. The single-/two-qubit split is what the mapper cares about;
// the distinction between, say, H and T only matters for QASM round-trips
// and semantic checks.
const (
	Invalid Kind = iota

	// Single-qubit gates.
	I
	H
	X
	Y
	Z
	S
	Sdg
	T
	Tdg
	RX
	RY
	RZ
	U1
	U2
	U3
	Measure
	Reset

	// Two-qubit gates.
	CX
	CZ
	SWAP

	numKinds
)

var kindNames = [numKinds]string{
	Invalid: "invalid",
	I:       "id",
	H:       "h",
	X:       "x",
	Y:       "y",
	Z:       "z",
	S:       "s",
	Sdg:     "sdg",
	T:       "t",
	Tdg:     "tdg",
	RX:      "rx",
	RY:      "ry",
	RZ:      "rz",
	U1:      "u1",
	U2:      "u2",
	U3:      "u3",
	Measure: "measure",
	Reset:   "reset",
	CX:      "cx",
	CZ:      "cz",
	SWAP:    "swap",
}

// String returns the lowercase OpenQASM-style mnemonic for the kind.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// TwoQubit reports whether gates of this kind act on two qubits.
func (k Kind) TwoQubit() bool {
	switch k {
	case CX, CZ, SWAP:
		return true
	}
	return false
}

// Parameterized reports whether gates of this kind carry rotation angles.
func (k Kind) Parameterized() bool {
	switch k {
	case RX, RY, RZ, U1, U2, U3:
		return true
	}
	return false
}

// Gate is a single operation on one or two program qubits. For two-qubit
// kinds, Q0 is the control and Q1 the target (for CZ and SWAP the roles are
// symmetric but the fields keep operand order). Params holds rotation
// angles for parameterized kinds; unused entries are zero.
type Gate struct {
	Kind   Kind
	Q0, Q1 int
	Params [3]float64
}

// NewGate1 builds a single-qubit gate.
func NewGate1(k Kind, q int) Gate { return Gate{Kind: k, Q0: q, Q1: -1} }

// NewGate2 builds a two-qubit gate with control c and target t.
func NewGate2(k Kind, c, t int) Gate { return Gate{Kind: k, Q0: c, Q1: t} }

// TwoQubit reports whether the gate acts on two qubits.
func (g Gate) TwoQubit() bool { return g.Kind.TwoQubit() }

// Qubits returns the operands of the gate (one or two entries).
func (g Gate) Qubits() []int {
	if g.TwoQubit() {
		return []int{g.Q0, g.Q1}
	}
	return []int{g.Q0}
}

// ActsOn reports whether the gate touches qubit q.
func (g Gate) ActsOn(q int) bool {
	return g.Q0 == q || (g.TwoQubit() && g.Q1 == q)
}

// String renders the gate in a QASM-like form, e.g. "cx q[0],q[3]".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Kind.String())
	if g.Kind.Parameterized() {
		fmt.Fprintf(&b, "(%g)", g.Params[0])
	}
	fmt.Fprintf(&b, " q[%d]", g.Q0)
	if g.TwoQubit() {
		fmt.Fprintf(&b, ",q[%d]", g.Q1)
	}
	return b.String()
}

// Circuit is an ordered gate sequence over NumQubits program qubits.
// The zero value is an empty circuit on zero qubits.
type Circuit struct {
	Name      string
	NumQubits int
	Gates     []Gate
}

// New returns an empty circuit on n qubits.
func New(name string, n int) *Circuit {
	return &Circuit{Name: name, NumQubits: n}
}

// Append adds gates to the end of the circuit. It panics if a gate operand
// is out of range; circuits are built programmatically and an out-of-range
// operand is a bug in the generator, not a recoverable condition.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		if err := c.checkGate(g); err != nil {
			panic(fmt.Sprintf("circuit %q: %v", c.Name, err))
		}
		c.Gates = append(c.Gates, g)
	}
}

// Add1 appends a single-qubit gate of kind k on qubit q.
func (c *Circuit) Add1(k Kind, q int) { c.Append(NewGate1(k, q)) }

// Add2 appends a two-qubit gate of kind k with control ctl and target tgt.
func (c *Circuit) Add2(k Kind, ctl, tgt int) { c.Append(NewGate2(k, ctl, tgt)) }

// AddRot appends a parameterized single-qubit rotation.
func (c *Circuit) AddRot(k Kind, q int, theta float64) {
	g := NewGate1(k, q)
	g.Params[0] = theta
	c.Append(g)
}

// AddCCX appends the standard Clifford+T Toffoli network (6 CX, 7
// T-type, 2 H) with controls a, b and target t. RevLib reversible
// benchmarks are built almost entirely from Toffolis, so this expansion
// defines their CX structure.
func (c *Circuit) AddCCX(a, b, t int) {
	c.Add1(H, t)
	c.Add2(CX, b, t)
	c.Add1(Tdg, t)
	c.Add2(CX, a, t)
	c.Add1(T, t)
	c.Add2(CX, b, t)
	c.Add1(Tdg, t)
	c.Add2(CX, a, t)
	c.Add1(T, b)
	c.Add1(T, t)
	c.Add1(H, t)
	c.Add2(CX, a, b)
	c.Add1(T, a)
	c.Add1(Tdg, b)
	c.Add2(CX, a, b)
}

// AddMCX appends a NOT on t under the given controls, without ancillas:
// no control is X, one is CX, two is AddCCX, and more split on the last
// control cn (the V / V† construction):
//
//	C^nX(c1..cn; t) = CV(cn, t) · C^(n−1)X(c1..c(n−1); cn) · CV†(cn, t) ·
//	                  C^(n−1)X(c1..c(n−1); cn) · C^(n−1)V(c1..c(n−1); t)
//
// Braiding sees only CX structure, so each controlled-V block
// contributes its CX skeleton (exact for up to two controls).
func (c *Circuit) AddMCX(controls []int, t int) {
	switch len(controls) {
	case 0:
		c.Add1(X, t)
	case 1:
		c.Add2(CX, controls[0], t)
	case 2:
		c.AddCCX(controls[0], controls[1], t)
	default:
		cn := controls[len(controls)-1]
		rest := controls[:len(controls)-1]
		c.Add2(CX, cn, t) // CV skeleton
		c.AddMCX(rest, cn)
		c.Add2(CX, cn, t) // CV† skeleton
		c.AddMCX(rest, cn)
		c.AddMCX(rest, t) // C^(n−1)V skeleton
	}
}

// CXCount returns the number of two-qubit gates in the circuit.
func (c *Circuit) CXCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.TwoQubit() {
			n++
		}
	}
	return n
}

// Len returns the total gate count.
func (c *Circuit) Len() int { return len(c.Gates) }

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits}
	out.Gates = append([]Gate(nil), c.Gates...)
	return out
}

func (c *Circuit) checkGate(g Gate) error {
	if g.Kind == Invalid || g.Kind >= numKinds {
		return fmt.Errorf("invalid gate kind %d", g.Kind)
	}
	if g.Q0 < 0 || g.Q0 >= c.NumQubits {
		return fmt.Errorf("gate %v: qubit %d out of range [0,%d)", g, g.Q0, c.NumQubits)
	}
	if g.TwoQubit() {
		if g.Q1 < 0 || g.Q1 >= c.NumQubits {
			return fmt.Errorf("gate %v: qubit %d out of range [0,%d)", g, g.Q1, c.NumQubits)
		}
		if g.Q0 == g.Q1 {
			return fmt.Errorf("gate %v: identical operands", g)
		}
	}
	return nil
}

// Validate checks every gate in the circuit and returns the first problem
// found, or nil. Useful after parsing untrusted QASM.
func (c *Circuit) Validate() error {
	if c.NumQubits < 0 {
		return fmt.Errorf("negative qubit count %d", c.NumQubits)
	}
	for i, g := range c.Gates {
		if err := c.checkGate(g); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// HasSWAP reports whether the circuit holds a SWAP gate.
func (c *Circuit) HasSWAP() bool {
	return slices.ContainsFunc(c.Gates, func(g Gate) bool { return g.Kind == SWAP })
}

// DecomposeSWAPs returns a circuit in which every SWAP gate is replaced by
// its three-CX expansion. Other gates are copied unchanged. The receiver is
// not modified. The output's gate slice is sized once from the SWAP count.
func (c *Circuit) DecomposeSWAPs() *Circuit {
	swaps := 0
	for _, g := range c.Gates {
		if g.Kind == SWAP {
			swaps++
		}
	}
	out := New(c.Name, c.NumQubits)
	out.Gates = make([]Gate, 0, len(c.Gates)+2*swaps)
	for _, g := range c.Gates {
		if g.Kind == SWAP {
			out.Add2(CX, g.Q0, g.Q1)
			out.Add2(CX, g.Q1, g.Q0)
			out.Add2(CX, g.Q0, g.Q1)
			continue
		}
		out.Gates = append(out.Gates, g)
	}
	return out
}

// String renders the circuit one gate per line, prefixed with a header.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q: %d qubits, %d gates\n", c.Name, c.NumQubits, len(c.Gates))
	for _, g := range c.Gates {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}
