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
}

// Fill rebuilds the per-qubit gate lists of c in place, reusing the list
// storage from a previous Fill so steady-state rebuilds do not allocate.
func (ql *QubitLists) Fill(c *Circuit) {
	if cap(ql.Lists) < c.NumQubits {
		ql.Lists = make([][]int, c.NumQubits)
	}
	ql.Lists = ql.Lists[:c.NumQubits]
	for q := range ql.Lists {
		ql.Lists[q] = ql.Lists[q][:0]
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
	avail := make([]int, c.NumQubits) // earliest layer a qubit is free at
	for i, g := range c.Gates {
		if !g.TwoQubit() {
			// Zero-cost: occupies the qubit's current availability point.
			layerOf[i] = avail[g.Q0]
			continue
		}
		l := avail[g.Q0]
		if avail[g.Q1] > l {
			l = avail[g.Q1]
		}
		layerOf[i] = l
		avail[g.Q0] = l + 1
		avail[g.Q1] = l + 1
		if l+1 > depth {
			depth = l + 1
		}
	}
	return layerOf, depth
}
