// Package bench generates the benchmark circuits of the paper's Table 1.
//
// The paper draws circuits from RevLib, ScaffCC, Qiskit and Cirq. Those
// suites are not vendored here; instead every benchmark is generated
// deterministically with the same qubit count, the same (or near-same)
// gate count, and the same interaction-graph shape, which is all the
// mapping problem observes:
//
//   - QFT — the paper's gate set {CX(i, j<i)} plus H and phase rotations:
//     exactly n² gates (n H, n(n−1)/2 CX, n(n−1)/2 RZ).
//   - BV — Bernstein–Vazirani with an all-ones hidden string: a pure CX
//     star into the ancilla (3n−1 gates, n−1 serialized CXs).
//   - CC — counterfeit-coin search: the same star without the closing
//     Hadamards (2(n−1) gates).
//   - Ising — 1D transverse-field Ising Trotter steps: a linear chain,
//     4 braiding layers per step on a linear layout.
//   - QAOA — MaxCut-style layers of ZZ interactions over a deterministic
//     pseudo-random pairing ("180 alternating ZZs" at n=100).
//   - BWT — binary-welded-tree walk: two depth-d binary trees glued by a
//     random welding permutation, Trotterized edge-color by edge-color.
//   - Shor — a locality-structured stand-in for Shor-471: repeated
//     ripple-adder chains over register windows with control fan-outs.
//   - RevLib building blocks (4gt11_82 … urf5_280) — seeded reversible
//     random circuits over {X, CX, Toffoli} calibrated to the published
//     gate counts (Toffolis expand to the standard 6-CX network exactly
//     as the paper's toolchain expands them).
//   - GHZ, W, VQE, graph-state chains for the pattern-matching analyses.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"hilight/internal/circuit"
)

// QFT returns the n-qubit quantum Fourier transform in the paper's gate
// accounting: H on each qubit and, per pair (i, j>i), one CX plus one RZ
// (the controlled-phase split), totalling exactly n² gates with a
// complete interaction graph.
func QFT(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("QFT-%d", n), n)
	for i := 0; i < n; i++ {
		c.Add1(circuit.H, i)
		for j := i + 1; j < n; j++ {
			c.Add2(circuit.CX, j, i)
			c.AddRot(circuit.RZ, i, math.Ldexp(math.Pi, -(j-i))) // π/2^(j−i), exact for any width
		}
	}
	return c
}

// BV returns the n-qubit (including ancilla) Bernstein–Vazirani circuit
// with the all-ones hidden string: 3n−1 gates, n−1 CXs sharing the
// ancilla target.
func BV(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("BV-%d", n), n)
	for q := 0; q < n-1; q++ {
		c.Add1(circuit.H, q)
	}
	c.Add1(circuit.X, n-1)
	c.Add1(circuit.H, n-1)
	for q := 0; q < n-1; q++ {
		c.Add2(circuit.CX, q, n-1)
	}
	for q := 0; q < n-1; q++ {
		c.Add1(circuit.H, q)
	}
	return c
}

// CC returns the n-qubit counterfeit-coin circuit: a Hadamard layer and a
// CX star into the last qubit (2(n−1) gates).
func CC(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("CC-%d", n), n)
	for q := 0; q < n-1; q++ {
		c.Add1(circuit.H, q)
	}
	for q := 0; q < n-1; q++ {
		c.Add2(circuit.CX, q, n-1)
	}
	return c
}

// Ising returns steps Trotter steps of the 1D transverse-field Ising
// model on n spins: per step, an RX on every spin and a ZZ (CX·RZ·CX) on
// every even bond then every odd bond. The interaction graph is the
// linear chain, so a snake layout executes each step in 4 braiding
// cycles.
func Ising(n, steps int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("Ising-%d", n), n)
	for s := 0; s < steps; s++ {
		for q := 0; q < n; q++ {
			c.AddRot(circuit.RX, q, 0.21)
		}
		for _, parity := range []int{0, 1} {
			for i := parity; i+1 < n; i += 2 {
				c.Add2(circuit.CX, i, i+1)
				c.AddRot(circuit.RZ, i+1, 0.37)
				c.Add2(circuit.CX, i, i+1)
			}
		}
	}
	return c
}

// QAOA returns a p-layer QAOA circuit on n qubits with zz pseudo-random
// ZZ interactions per layer (deterministic pairing). Each layer is the ZZ
// block followed by the RX mixer; an initial H layer prepares |+...+⟩.
// The paper's instance is QAOA(100, 180, 4).
func QAOA(n, zz, p int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("QAOA-%d", n), n)
	rng := rand.New(rand.NewSource(int64(n)*1_000_003 + int64(zz)))
	type edge struct{ a, b int }
	edges := make([]edge, 0, zz)
	seen := map[edge]bool{}
	for len(edges) < zz {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := edge{a, b}
		if seen[e] && len(seen) < n*(n-1)/2 {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	for layer := 0; layer < p; layer++ {
		for _, e := range edges {
			c.Add2(circuit.CX, e.a, e.b)
			c.AddRot(circuit.RZ, e.b, 0.4)
			c.Add2(circuit.CX, e.a, e.b)
		}
		for q := 0; q < n; q++ {
			c.AddRot(circuit.RX, q, 0.8)
		}
	}
	return c
}

// BWT returns a binary-welded-tree walk circuit. Two complete binary
// trees of the given depth are welded leaf-to-leaf by a deterministic
// pseudo-random matching; each Trotter step applies a ZZ-style CX·RZ·CX
// along every edge, color by color (tree level by tree level). Qubits are
// the 2(2^(depth+1)−1) tree nodes.
func BWT(depth, steps int) *circuit.Circuit {
	nodes := 1<<(depth+1) - 1 // per tree
	n := 2 * nodes
	c := circuit.New(fmt.Sprintf("BWT-%d", n), n)
	rng := rand.New(rand.NewSource(int64(depth)*97 + int64(steps)))
	// Tree edges: node i has children 2i+1, 2i+2 (indices within a tree).
	type edge struct{ a, b int }
	var colors [][]edge
	for level := 0; level < depth; level++ {
		var even, odd []edge
		for i := 1<<level - 1; i < 1<<(level+1)-1; i++ {
			// Left tree edges, then mirrored right tree edges.
			even = append(even, edge{i, 2*i + 1}, edge{nodes + i, nodes + 2*i + 1})
			odd = append(odd, edge{i, 2*i + 2}, edge{nodes + i, nodes + 2*i + 2})
		}
		colors = append(colors, even, odd)
	}
	// Welding: random matching between left leaves and right leaves.
	leafStart := 1<<depth - 1
	perm := rng.Perm(1 << depth)
	var weld []edge
	for i := 0; i < 1<<depth; i++ {
		weld = append(weld, edge{leafStart + i, nodes + leafStart + perm[i]})
	}
	colors = append(colors, weld)
	for s := 0; s < steps; s++ {
		for _, color := range colors {
			for _, e := range color {
				c.Add2(circuit.CX, e.a, e.b)
				c.AddRot(circuit.RZ, e.b, 0.23)
				c.Add2(circuit.CX, e.a, e.b)
			}
		}
	}
	return c
}

// Shor returns a locality-structured stand-in for the paper's Shor-471
// instance: over register windows of width 16, repeated ripple-carry
// adder chains (nearest-neighbour CX ladders) interleaved with control
// fan-outs from a sliding control qubit, sized to approximately gates
// total gates. The mix of local chains and medium-range fan-outs is what
// gives placement its large win on this benchmark.
func Shor(n, gates int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("Shor-%d", n), n)
	rng := rand.New(rand.NewSource(int64(n)))
	window := 16
	if window > n {
		window = n
	}
	for c.Len() < gates {
		base := rng.Intn(n - window + 1)
		// Ripple chain up the window.
		for i := 0; i+1 < window; i++ {
			c.Add2(circuit.CX, base+i, base+i+1)
		}
		// Controlled fan-out from the window head to a few positions.
		ctrl := base
		for k := 0; k < 4; k++ {
			tgt := base + 1 + rng.Intn(window-1)
			if tgt != ctrl {
				c.Add2(circuit.CX, ctrl, tgt)
			}
		}
		c.AddRot(circuit.RZ, base, 0.11)
	}
	c.Gates = c.Gates[:gates]
	return c
}

// GHZ returns the n-qubit GHZ preparation: H then a CX chain.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("GHZ-%d", n), n)
	c.Add1(circuit.H, 0)
	for i := 0; i+1 < n; i++ {
		c.Add2(circuit.CX, i, i+1)
	}
	return c
}

// WState returns an n-qubit W-state preparation skeleton: a chain of
// controlled rotations (RY+CX pairs), linear interaction graph.
func WState(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("W-%d", n), n)
	c.Add1(circuit.X, 0)
	for i := 0; i+1 < n; i++ {
		theta := 2 * math.Acos(math.Sqrt(1/float64(n-i)))
		c.AddRot(circuit.RY, i+1, theta)
		c.Add2(circuit.CX, i, i+1)
		c.AddRot(circuit.RY, i+1, -theta)
		c.Add2(circuit.CX, i, i+1)
	}
	return c
}

// VQE returns a hardware-efficient VQE ansatz layer stack on a linear
// chain: RY rotations plus nearest-neighbour CX entanglers.
func VQE(n, layers int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("VQE-%d", n), n)
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(layers)))
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.AddRot(circuit.RY, q, rng.Float64()*math.Pi)
		}
		for i := l % 2; i+1 < n; i += 2 {
			c.Add2(circuit.CX, i, i+1)
		}
	}
	return c
}

// GraphState returns the graph-state preparation for a ring of n qubits:
// H everywhere then CZ along chain edges (linear interaction graph).
func GraphState(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("graphstate-%d", n), n)
	for q := 0; q < n; q++ {
		c.Add1(circuit.H, q)
	}
	for i := 0; i+1 < n; i++ {
		c.Add2(circuit.CZ, i, i+1)
	}
	return c
}
