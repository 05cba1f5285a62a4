// Package graph provides the graph machinery the mapping heuristics are
// built on: a dense weighted undirected graph, breadth-first orders,
// greedy maximal independent sets (for the AutoBraid-style LLG gate
// ordering), Kernighan–Lin recursive bisection (for the AutoBraid
// partitioning placement), and a small binary min-heap used by the A*
// path-finder.
package graph

import (
	"fmt"
	"sort"
)

// Dense is a weighted undirected graph on vertices 0..N-1 stored as a
// row-major adjacency matrix. Zero weight means no edge. Self-loops are
// not representable (the diagonal is ignored).
type Dense struct {
	N       int
	weights []int
}

// NewDense returns an empty graph on n vertices.
func NewDense(n int) *Dense {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Dense{N: n, weights: make([]int, n*n)}
}

// AddEdge adds w to the weight of edge {u,v}. Adding to the diagonal is a
// no-op.
func (g *Dense) AddEdge(u, v, w int) {
	if u == v {
		return
	}
	g.weights[u*g.N+v] += w
	g.weights[v*g.N+u] += w
}

// Weight returns the weight of edge {u,v} (0 when absent).
func (g *Dense) Weight(u, v int) int { return g.weights[u*g.N+v] }

// WeightedDegree returns the total incident edge weight of u.
func (g *Dense) WeightedDegree(u int) int {
	s := 0
	for v := 0; v < g.N; v++ {
		s += g.weights[u*g.N+v]
	}
	return s
}

// Neighbors returns the neighbors of u in ascending index order.
func (g *Dense) Neighbors(u int) []int {
	var out []int
	for v := 0; v < g.N; v++ {
		if g.weights[u*g.N+v] > 0 {
			out = append(out, v)
		}
	}
	return out
}

// BFSOrder returns vertices in breadth-first order from start, visiting
// heavier edges first within a frontier. Vertices unreachable from start
// are appended afterwards in ascending index order, each starting a fresh
// BFS from the lowest-index unvisited vertex, so the result is always a
// permutation of all vertices.
func (g *Dense) BFSOrder(start int) []int {
	order := make([]int, 0, g.N)
	seen := make([]bool, g.N)
	var bfs func(int)
	bfs = func(s int) {
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			nbrs := g.Neighbors(u)
			sort.Slice(nbrs, func(a, b int) bool {
				wa, wb := g.Weight(u, nbrs[a]), g.Weight(u, nbrs[b])
				if wa != wb {
					return wa > wb
				}
				return nbrs[a] < nbrs[b]
			})
			for _, v := range nbrs {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	if g.N == 0 {
		return order
	}
	bfs(start)
	for v := 0; v < g.N; v++ {
		if !seen[v] {
			bfs(v)
		}
	}
	return order
}

// MaxWeightVertex returns the vertex with the largest weighted degree
// (lowest index on ties); -1 for an empty graph.
func (g *Dense) MaxWeightVertex() int {
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
func (g *Dense) GreedyIndependentSet(candidates []int) []int {
	blocked := make(map[int]bool, len(candidates))
	var out []int
	for _, v := range candidates {
		if blocked[v] {
			continue
		}
		out = append(out, v)
		for u := 0; u < g.N; u++ {
			if g.weights[v*g.N+u] > 0 {
				blocked[u] = true
			}
		}
		blocked[v] = true
	}
	return out
}
