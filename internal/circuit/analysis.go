package circuit

import "sort"

// InteractionMatrix is the circGraph of Alg. 1: entry [i][j] counts the
// two-qubit gates between program qubits i and j (symmetric, zero
// diagonal). The paper adopts this flat matrix representation instead of a
// node/edge graph precisely because it is cheap to build and scan.
type InteractionMatrix struct {
	N      int
	Counts []int // row-major N×N
}

// NewInteractionMatrix builds the CX interaction matrix of c.
func NewInteractionMatrix(c *Circuit) *InteractionMatrix {
	m := &InteractionMatrix{N: c.NumQubits, Counts: make([]int, c.NumQubits*c.NumQubits)}
	for _, g := range c.Gates {
		if g.TwoQubit() {
			m.Counts[g.Q0*m.N+g.Q1]++
			m.Counts[g.Q1*m.N+g.Q0]++
		}
	}
	return m
}

// At returns the interaction count between qubits i and j.
func (m *InteractionMatrix) At(i, j int) int { return m.Counts[i*m.N+j] }

// Degree returns the number of distinct partners of qubit q.
func (m *InteractionMatrix) Degree(q int) int {
	d := 0
	for j := 0; j < m.N; j++ {
		if m.Counts[q*m.N+j] > 0 {
			d++
		}
	}
	return d
}

// WeightSum returns the total interaction count of qubit q (sum of row q).
func (m *InteractionMatrix) WeightSum(q int) int {
	s := 0
	for j := 0; j < m.N; j++ {
		s += m.Counts[q*m.N+j]
	}
	return s
}

// Neighbors returns the partners of qubit q sorted by descending
// interaction count, ties broken by ascending qubit index. This is the
// SortByMaxDegree(circQueue[q]) step of Alg. 1.
func (m *InteractionMatrix) Neighbors(q int) []int {
	var out []int
	for j := 0; j < m.N; j++ {
		if m.Counts[q*m.N+j] > 0 {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		wa, wb := m.Counts[q*m.N+out[a]], m.Counts[q*m.N+out[b]]
		if wa != wb {
			return wa > wb
		}
		return out[a] < out[b]
	})
	return out
}

// QueueByDegree returns all qubits sorted by descending degree, ties broken
// by descending weight sum then ascending index: the circQueue of Alg. 1.
// Qubits that never interact sort last.
func (m *InteractionMatrix) QueueByDegree() []int {
	out := make([]int, m.N)
	deg := make([]int, m.N)
	wsum := make([]int, m.N)
	for q := range out {
		out[q] = q
		deg[q] = m.Degree(q)
		wsum[q] = m.WeightSum(q)
	}
	sort.SliceStable(out, func(a, b int) bool {
		qa, qb := out[a], out[b]
		if deg[qa] != deg[qb] {
			return deg[qa] > deg[qb]
		}
		if wsum[qa] != wsum[qb] {
			return wsum[qa] > wsum[qb]
		}
		return qa < qb
	})
	return out
}

// IsLinearChain reports whether the interaction graph is a single simple
// path covering all interacting qubits — the shape for which the paper's
// pattern matching selects the linear layout (1D Ising, GHZ, W, VQE,
// graph-state circuits). Isolated qubits are permitted; they simply ride
// along. The second return value is the chain order when linear.
func (m *InteractionMatrix) IsLinearChain() (bool, []int) {
	var ends []int
	active := 0
	for q := 0; q < m.N; q++ {
		switch d := m.Degree(q); {
		case d == 0:
			continue
		case d == 1:
			ends = append(ends, q)
			active++
		case d == 2:
			active++
		default:
			return false, nil
		}
	}
	if active == 0 || len(ends) != 2 {
		return false, nil
	}
	// Walk from one end; a cycle or a second component fails the walk.
	start := ends[0]
	order := []int{start}
	prev, cur := -1, start
	for {
		next := -1
		for j := 0; j < m.N; j++ {
			if j != prev && m.Counts[cur*m.N+j] > 0 {
				if next != -1 {
					return false, nil
				}
				next = j
			}
		}
		if next == -1 {
			break
		}
		order = append(order, next)
		prev, cur = cur, next
	}
	if len(order) != active {
		return false, nil
	}
	// Append isolated qubits in index order so the layout is total.
	for q := 0; q < m.N; q++ {
		if m.Degree(q) == 0 {
			order = append(order, q)
		}
	}
	return true, order
}

// Density returns the fraction of realized qubit pairs: 1.0 means a
// complete interaction graph (QFT-like). Used by pattern matching to pick
// the random layout for dynamic-interaction algorithms.
func (m *InteractionMatrix) Density() float64 {
	if m.N < 2 {
		return 0
	}
	pairs := 0
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if m.Counts[i*m.N+j] > 0 {
				pairs++
			}
		}
	}
	return float64(pairs) / float64(m.N*(m.N-1)/2)
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
