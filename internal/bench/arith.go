package bench

import (
	"fmt"

	"hilight/internal/circuit"
)

// CuccaroAdder returns the Cuccaro ripple-carry adder on two bits-wide
// registers: qubit 0 is the carry-in, qubits 1..2·bits alternate
// b0,a0,b1,a1,..., and the last qubit is the carry-out. After execution
// the b register holds a+b (mod 2^bits) and the carry-out the final
// carry — verified against classical addition by the test suite through
// the statevector oracle. Toffolis are expanded into the standard 6-CX
// network, so the circuit is directly mappable.
func CuccaroAdder(bits int) *circuit.Circuit {
	if bits < 1 {
		panic(fmt.Sprintf("bench: adder width %d must be positive", bits))
	}
	n := 2*bits + 2
	c := circuit.New(fmt.Sprintf("cuccaro-%d", bits), n)
	cin := 0
	b := func(i int) int { return 1 + 2*i }
	a := func(i int) int { return 2 + 2*i }
	cout := n - 1

	maj := func(x, y, z int) {
		c.Add2(circuit.CX, z, y)
		c.Add2(circuit.CX, z, x)
		c.AddCCX(x, y, z)
	}
	uma := func(x, y, z int) {
		c.AddCCX(x, y, z)
		c.Add2(circuit.CX, z, x)
		c.Add2(circuit.CX, x, y)
	}

	maj(cin, b(0), a(0))
	for i := 1; i < bits; i++ {
		maj(a(i-1), b(i), a(i))
	}
	c.Add2(circuit.CX, a(bits-1), cout)
	for i := bits - 1; i >= 1; i-- {
		uma(a(i-1), b(i), a(i))
	}
	uma(cin, b(0), a(0))
	return c
}

// Grover returns a Grover-search skeleton on n qubits with the given
// iteration count: the uniform-superposition preparation, then per
// iteration a phase-oracle block (a CZ ladder marking the all-ones
// string, built from the multi-control recursion's CX skeleton) and the
// diffusion operator. The interaction structure — repeated global
// entangling blocks — is what stresses the mapper; the oracle marks the
// all-ones state.
func Grover(n, iterations int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("grover-%d", n), n)
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	for it := 0; it < iterations; it++ {
		multiControlledZ(c, n)
		// Diffusion: H X (MCZ) X H.
		for q := 0; q < n; q++ {
			c.Add1(circuit.H, q)
			c.Add1(circuit.X, q)
		}
		multiControlledZ(c, n)
		for q := 0; q < n; q++ {
			c.Add1(circuit.X, q)
			c.Add1(circuit.H, q)
		}
	}
	return c
}

// multiControlledZ emits an (n−1)-controlled Z on qubits 0..n−1 via the
// H-conjugated multi-control-X recursion (CX skeleton for the controlled
// square-root blocks, exact for n ≤ 3).
func multiControlledZ(c *circuit.Circuit, n int) {
	if n == 1 {
		c.Add1(circuit.Z, 0)
		return
	}
	tgt := n - 1
	c.Add1(circuit.H, tgt)
	controls := make([]int, n-1)
	for i := range controls {
		controls[i] = i
	}
	c.AddMCX(controls, tgt)
	c.Add1(circuit.H, tgt)
}

// HiddenShift returns the Bremner-style hidden-shift benchmark on n
// qubits: Hadamard layers around an X-shift and a CZ-pairing function,
// repeated twice. Linear-plus-local structure, popular in mapper
// evaluations.
func HiddenShift(n int, shift uint64) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("hiddenshift-%d", n), n)
	applyShift := func() {
		for q := 0; q < n && q < 64; q++ {
			if shift&(1<<q) != 0 {
				c.Add1(circuit.X, q)
			}
		}
	}
	czLayer := func() {
		for i := 0; i+1 < n; i += 2 {
			c.Add2(circuit.CZ, i, i+1)
		}
	}
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	applyShift()
	czLayer()
	applyShift()
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	czLayer()
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	return c
}
