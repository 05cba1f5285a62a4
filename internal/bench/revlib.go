package bench

import (
	"fmt"
	"math/rand"

	"hilight/internal/circuit"
)

// RevLib generates a seeded reversible random circuit calibrated to a
// RevLib building-block benchmark: a deterministic mix of X, CX and
// Toffoli gates on n qubits, with Toffolis expanded into the standard
// 6-CX Clifford+T network (the same expansion the paper's toolchain
// applies), truncated to exactly the published gate count.
//
// The seed is derived from the name so every named benchmark is
// reproducible. Reversible functions interact densely on their few
// qubits, which the uniform operand choice reproduces.
func RevLib(name string, n, gates int) *circuit.Circuit {
	c := circuit.New(name, n)
	// The loop stops within one Toffoli's 15-gate expansion past gates.
	c.Gates = make([]circuit.Gate, 0, gates+15)
	seed := int64(0)
	for _, r := range name {
		seed = seed*131 + int64(r)
	}
	rng := rand.New(rand.NewSource(seed))
	for c.Len() < gates {
		switch r := rng.Intn(10); {
		case r < 1:
			c.Add1(circuit.X, rng.Intn(n))
		case r < 6:
			a, b := twoDistinct(rng, n)
			c.Add2(circuit.CX, a, b)
		default:
			if n < 3 {
				a, b := twoDistinct(rng, n)
				c.Add2(circuit.CX, a, b)
				continue
			}
			a, b, t := threeDistinct(rng, n)
			c.AddCCX(a, b, t)
		}
	}
	c.Gates = c.Gates[:gates]
	return c
}

func twoDistinct(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

func threeDistinct(rng *rand.Rand, n int) (int, int, int) {
	perm := rng.Perm(n)
	return perm[0], perm[1], perm[2]
}

// Entry is one Table 1 benchmark: its paper metadata and a generator.
type Entry struct {
	Type     string // "building-block" or "application"
	Function string // the paper's function column
	Name     string
	N        int // paper qubit count
	Gates    int // paper gate count (approximate for generated apps)
	Build    func() *circuit.Circuit
}

// Table1 returns the paper's 35 benchmarks in table order. Generated
// gate counts match the paper exactly for the RevLib blocks, QFT, BV and
// CC, and approximately (same interaction shape and latency behaviour)
// for Ising, BWT, QAOA and Shor.
func Table1() []Entry {
	bb := func(fn, name string, n, g int) Entry {
		return Entry{
			Type: "building-block", Function: fn, Name: name, N: n, Gates: g,
			Build: func() *circuit.Circuit { return RevLib(name, n, g) },
		}
	}
	app := func(fn, name string, n, g int, build func() *circuit.Circuit) Entry {
		return Entry{Type: "application", Function: fn, Name: name, N: n, Gates: g, Build: build}
	}
	entries := []Entry{
		bb("Compare input", "4gt11_82", 5, 20),
		bb("Compare input", "4gt5_75", 5, 48),
		bb("ALU by Gupta", "alu-v0_26", 5, 48),
		bb("Bit adder", "rd32_270", 5, 46),
		bb("Square root", "sqrt8_260", 12, 1690),
		bb("Square root", "squar5_261", 13, 1120),
		bb("Square root", "square_root_7", 15, 4070),
		bb("Unstructured reversible function", "urf1_278", 9, 32800),
		bb("Unstructured reversible function", "urf2_277", 8, 12300),
		bb("Unstructured reversible function", "urf5_158", 9, 92500),
		bb("Unstructured reversible function", "urf5_280", 9, 29500),
	}
	for _, n := range []int{10, 16, 100, 150, 200, 400, 500} {
		n := n
		entries = append(entries, app("Quantum Fourier Transform", fmt.Sprintf("QFT-%d", n), n, n*n,
			func() *circuit.Circuit { return QFT(n) }))
	}
	for _, n := range []int{10, 100, 150, 200} {
		n := n
		entries = append(entries, app("Bernstein Vazirani", fmt.Sprintf("BV-%d", n), n, 3*n-1,
			func() *circuit.Circuit { return BV(n) }))
	}
	for _, n := range []int{11, 18, 100, 200, 300} {
		n := n
		entries = append(entries, app("Counterfeit Coin", fmt.Sprintf("CC-%d", n), n, 2*(n-1),
			func() *circuit.Circuit { return CC(n) }))
	}
	isingSteps := map[int]int{10: 5, 13: 5, 16: 5, 500: 1, 1000: 1}
	for _, n := range []int{10, 13, 16, 500, 1000} {
		n := n
		steps := isingSteps[n]
		g := steps * (n + 3*((n-1)/2+n/2))
		entries = append(entries, app("1D-Ising Model", fmt.Sprintf("Ising-%d", n), n, g,
			func() *circuit.Circuit { return Ising(n, steps) }))
	}
	entries = append(entries,
		app("Binary Welded Tree", "BWT-126", 126, 948,
			func() *circuit.Circuit { return BWT(5, 1) }),
		app("Binary Welded Tree", "BWT-254", 254, 1908,
			func() *circuit.Circuit { return BWT(6, 1) }),
		app("Quantum Approximate Optimization Alg.", "QAOA-100", 100, 2720,
			func() *circuit.Circuit { return QAOA(100, 180, 4) }),
		app("Shor's Algo.", "Shor-471", 471, 36600,
			func() *circuit.Circuit { return Shor(471, 36600) }),
	)
	return entries
}

// ByName returns the Table 1 entry with the given name.
func ByName(name string) (Entry, bool) {
	for _, e := range Table1() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}
