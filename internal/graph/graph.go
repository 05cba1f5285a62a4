// Package graph provides the graph machinery the mapping heuristics are
// built on: a sparse weighted undirected graph in compressed rows (the
// circGraph of Alg. 1, which circuit.InteractionGraph builds, and the
// LLG conflict graph), the degree queue and pattern tests of HiLight's
// placement, breadth-first orders, greedy maximal independent sets (for
// the AutoBraid-style LLG gate ordering), and Kernighan–Lin recursive
// bisection (for the AutoBraid partitioning placement).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Sparse is a weighted undirected graph on vertices 0..N-1 stored in
// compressed rows: row u lists u's neighbors by descending edge weight,
// ties broken by ascending index, with each edge's weight alongside.
// Every edge sits in both of its endpoints' rows, and there are no
// self-loops. A Sparse is immutable once built, so its rows are handed
// out as views, and its memory is linear in its vertices and edges.
type Sparse struct {
	N int

	offs []int   // row u is nbrs[offs[u]:offs[u+1]]
	nbrs []int32 // every row's neighbors, row after row
	wts  []int32 // wts[i] is the weight of the edge to nbrs[i]
	wdeg []int   // per vertex, the sum of its row's weights
}

// NewSparse builds the graph on n vertices in which edge {u,v} weighs
// the number of indices i < m at which pair(i) returns u and v, in
// either order. A pair with u == v is a self-loop and adds nothing.
// pair is called twice per index, so the pairs need not be stored, and
// must return the same pair both times. The build counts each row's
// pair ends, fills every row out of one array, merges repeated pairs row
// by row through a vertex-indexed slot table and sorts each row:
// O(m + n + edges·log degree) time and O(pairs + n) memory.
func NewSparse(n, m int, pair func(i int) (u, v int)) *Sparse {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Sparse{N: n, offs: make([]int, n+1), wdeg: make([]int, n)}
	offs := g.offs
	for i := 0; i < m; i++ {
		if u, v := pair(i); u != v {
			offs[u+1]++
			offs[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		offs[u+1] += offs[u]
	}
	// Each pair end is a sort key, (MaxUint32 − weight)<<32 | neighbor,
	// so ascending keys are the row order: heaviest first, then lowest
	// index. offs[u] serves as row u's fill cursor, and ends at row u+1's
	// start.
	const weight1 = (math.MaxUint32 - 1) << 32
	keys := make([]uint64, offs[n])
	for i := 0; i < m; i++ {
		if u, v := pair(i); u != v {
			keys[offs[u]] = weight1 | uint64(v)
			offs[u]++
			keys[offs[v]] = weight1 | uint64(u)
			offs[v]++
		}
	}
	copy(offs[1:], offs[:n])
	offs[0] = 0
	// Merge each row's repeated pairs into the first: slot[v] is where
	// the current row holds v, when it is at or past the row's start.
	slot := make([]int, n)
	for v := range slot {
		slot[v] = -1
	}
	out := 0
	for u := 0; u < n; u++ {
		start := out
		for _, k := range keys[offs[u]:offs[u+1]] {
			v := int(uint32(k))
			if s := slot[v]; s >= start {
				keys[s] -= 1 << 32
				continue
			}
			slot[v] = out
			keys[out] = k
			out++
		}
		offs[u] = start
		slices.Sort(keys[start:out])
	}
	offs[n] = out
	g.nbrs = make([]int32, out)
	g.wts = make([]int32, out)
	for u := 0; u < n; u++ {
		for i := offs[u]; i < offs[u+1]; i++ {
			g.nbrs[i] = int32(uint32(keys[i]))
			g.wts[i] = int32(math.MaxUint32 - uint32(keys[i]>>32))
			g.wdeg[u] += int(g.wts[i])
		}
	}
	return g
}

// Neighbors returns the neighbors of u sorted by descending edge weight,
// ties broken by ascending index: on the circGraph, the
// SortByMaxDegree(circQueue[q]) step of Alg. 1. The slice is a view of
// the graph and must not be modified.
func (g *Sparse) Neighbors(u int) []int32 { return g.nbrs[g.offs[u]:g.offs[u+1]] }

// Weights returns the weights of u's edges in Neighbors(u)'s order. The
// slice is a view of the graph and must not be modified.
func (g *Sparse) Weights(u int) []int32 { return g.wts[g.offs[u]:g.offs[u+1]] }

// Degree returns the number of distinct neighbors of u.
func (g *Sparse) Degree(u int) int { return g.offs[u+1] - g.offs[u] }

// WeightedDegree returns the total incident edge weight of u.
func (g *Sparse) WeightedDegree(u int) int { return g.wdeg[u] }

// QueueByDegree returns all vertices sorted by descending degree, ties
// broken by descending weighted degree then ascending index: on the
// circGraph, the circQueue of Alg. 1. Vertices without edges sort last.
func (g *Sparse) QueueByDegree() []int {
	out := make([]int, g.N)
	for q := range out {
		out[q] = q
	}
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		if c := cmp.Compare(g.WeightedDegree(b), g.WeightedDegree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}

// IsLinearChain reports whether the graph is a single simple path
// covering all vertices with edges — on the circGraph, the shape for
// which the paper's pattern matching selects the linear layout (1D
// Ising, GHZ, W, VQE, graph-state circuits). Isolated vertices are
// permitted; they simply ride along. The second return value is the
// chain order when linear.
func (g *Sparse) IsLinearChain() (bool, []int) {
	start, ends, active := -1, 0, 0
	for q := 0; q < g.N; q++ {
		switch d := g.Degree(q); {
		case d == 0:
			continue
		case d == 1:
			if ends == 0 {
				start = q
			}
			ends++
			active++
		case d == 2:
			active++
		default:
			return false, nil
		}
	}
	if active == 0 || ends != 2 {
		return false, nil
	}
	// Walk from the lower-index end; a cycle or a second component
	// leaves vertices with edges off the walk.
	order := make([]int, 0, g.N)
	order = append(order, start)
	prev, cur := -1, start
	for {
		next := -1
		for _, v := range g.Neighbors(cur) {
			if int(v) != prev {
				next = int(v)
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
	// Append isolated vertices in index order so the layout is total.
	for q := 0; q < g.N; q++ {
		if g.Degree(q) == 0 {
			order = append(order, q)
		}
	}
	return true, order
}

// Density returns the fraction of vertex pairs joined by an edge: 1.0
// means a complete graph (a QFT-like circGraph). Pattern matching uses
// it to pick the random layout for dynamic-interaction algorithms.
func (g *Sparse) Density() float64 {
	if g.N < 2 {
		return 0
	}
	return float64(len(g.nbrs)/2) / float64(g.N*(g.N-1)/2)
}

// BFSOrder returns vertices in breadth-first order from start, visiting
// heavier edges first within a frontier. Vertices unreachable from start
// are appended afterwards in ascending index order, each starting a fresh
// BFS from the lowest-index unvisited vertex, so the result is always a
// permutation of all vertices.
func (g *Sparse) BFSOrder(start int) []int {
	order := make([]int, 0, g.N)
	if g.N == 0 {
		return order
	}
	seen := make([]bool, g.N)
	// visit appends the component of s in breadth-first order; the
	// vertices of order from head on are its queue.
	visit := func(s int) {
		seen[s] = true
		order = append(order, s)
		for head := len(order) - 1; head < len(order); head++ {
			for _, v := range g.Neighbors(order[head]) {
				if !seen[v] {
					seen[v] = true
					order = append(order, int(v))
				}
			}
		}
	}
	visit(start)
	for v := 0; v < g.N; v++ {
		if !seen[v] {
			visit(v)
		}
	}
	return order
}

// MaxWeightVertex returns the vertex with the largest weighted degree
// (lowest index on ties); -1 for an empty graph.
func (g *Sparse) MaxWeightVertex() int {
	best, bestW := -1, -1
	for v := 0; v < g.N; v++ {
		if w := g.WeightedDegree(v); w > bestW {
			best, bestW = v, w
		}
	}
	return best
}

// GreedyIndependentSet returns a maximal independent set of the graph
// restricted to candidates, preferring vertices in the order given. It is
// the selection step of the AutoBraid-style LLG gate ordering: the graph
// is a conflict graph between executable gates, and an independent set is
// a group of gates whose braiding paths can coexist.
func (g *Sparse) GreedyIndependentSet(candidates []int) []int {
	blocked := make([]bool, g.N)
	var out []int
	for _, v := range candidates {
		if blocked[v] {
			continue
		}
		out = append(out, v)
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
		blocked[v] = true
	}
	return out
}
