package circuit

import "hilight/internal/graph"

// InteractionGraph builds the circGraph of Alg. 1: the weight of edge
// {i,j} counts the two-qubit gates between program qubits i and j. The
// paper adopts this flat matrix instead of a node/edge graph because it
// is cheap to build and scan.
func InteractionGraph(c *Circuit) *graph.Dense {
	g := graph.NewDense(c.NumQubits)
	for _, gate := range c.Gates {
		if gate.TwoQubit() {
			g.AddEdge(gate.Q0, gate.Q1, 1)
		}
	}
	return g
}

// QubitLists is the circList of Alg. 2: for every program qubit, the
// indices (into Circuit.Gates) of the gates touching it, in program order.
// The routing loop consumes these lists front-to-back via per-qubit
// cursors.
type QubitLists struct {
	Lists [][]int

	offs []int // per qubit, where its list starts in back; offs[n] is the total
	back []int // every list's entries, qubit after qubit
}

// Fill rebuilds the per-qubit gate lists of c. It counts each qubit's
// entries, then carves every list out of one backing array of that total
// size and fills it, so no list regrows. The counts, the array and the
// list headers are kept from the previous Fill when large enough, so
// steady-state rebuilds do not allocate, whatever the per-qubit counts.
func (ql *QubitLists) Fill(c *Circuit) {
	n := c.NumQubits
	if cap(ql.offs) < n+1 {
		ql.offs = make([]int, n+1)
	}
	offs := ql.offs[:n+1]
	clear(offs)
	for _, g := range c.Gates {
		offs[g.Q0+1]++
		if g.TwoQubit() {
			offs[g.Q1+1]++
		}
	}
	for q := 0; q < n; q++ {
		offs[q+1] += offs[q]
	}
	if cap(ql.back) < offs[n] {
		ql.back = make([]int, offs[n])
	}
	if cap(ql.Lists) < n {
		ql.Lists = make([][]int, n)
	}
	ql.Lists = ql.Lists[:n]
	for q := range ql.Lists {
		ql.Lists[q] = ql.back[offs[q]:offs[q]:offs[q+1]]
	}
	for i, g := range c.Gates {
		ql.Lists[g.Q0] = append(ql.Lists[g.Q0], i)
		if g.TwoQubit() {
			ql.Lists[g.Q1] = append(ql.Lists[g.Q1], i)
		}
	}
}

// Layers performs ASAP layering of the circuit: gates that commute by
// construction (touch disjoint qubits) share a layer. Only two-qubit gates
// consume depth; single-qubit gates are folded into the layer of the
// preceding gate on their qubit. The result maps gate index -> layer and
// also returns the depth (number of two-qubit layers).
func Layers(c *Circuit) (layerOf []int, depth int) {
	layerOf = make([]int, len(c.Gates))
	return layerOf, layers(c, layerOf)
}

// Depth returns the depth Layers returns, without its per-gate layers.
func Depth(c *Circuit) int { return layers(c, nil) }

// layers is the ASAP sweep behind Layers and Depth; it records each
// gate's layer in layerOf unless layerOf is nil.
func layers(c *Circuit, layerOf []int) (depth int) {
	avail := make([]int, c.NumQubits) // earliest layer a qubit is free at
	for i, g := range c.Gates {
		// A single-qubit gate is zero-cost: it occupies its qubit's
		// current availability point.
		l := avail[g.Q0]
		if g.TwoQubit() {
			l = max(l, avail[g.Q1])
			avail[g.Q0], avail[g.Q1] = l+1, l+1
			depth = max(depth, l+1)
		}
		if layerOf != nil {
			layerOf[i] = l
		}
	}
	return depth
}
