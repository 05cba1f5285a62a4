package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// This file keeps the dense adjacency matrix the graph package used
// before Sparse, method for method, as the oracle Sparse is held to: on
// the same pairs, both must answer every query alike.

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

// Neighbors returns the neighbors of u sorted by descending edge weight,
// ties broken by ascending index. On the circGraph this is the
// SortByMaxDegree(circQueue[q]) step of Alg. 1.
func (g *Dense) Neighbors(u int) []int {
	row := g.weights[u*g.N : (u+1)*g.N]
	var out []int
	for v, w := range row {
		if w > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		wa, wb := row[out[a]], row[out[b]]
		if wa != wb {
			return wa > wb
		}
		return out[a] < out[b]
	})
	return out
}

// Degree returns the number of distinct neighbors of u.
func (g *Dense) Degree(u int) int {
	d := 0
	for _, w := range g.weights[u*g.N : (u+1)*g.N] {
		if w > 0 {
			d++
		}
	}
	return d
}

// QueueByDegree returns all vertices sorted by descending degree, ties
// broken by descending weighted degree then ascending index: on the
// circGraph, the circQueue of Alg. 1. Vertices without edges sort last.
func (g *Dense) QueueByDegree() []int {
	out := make([]int, g.N)
	deg := make([]int, g.N)
	wsum := make([]int, g.N)
	for q := range out {
		out[q] = q
		deg[q] = g.Degree(q)
		wsum[q] = g.WeightedDegree(q)
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

// IsLinearChain reports whether the graph is a single simple path
// covering all vertices with edges — on the circGraph, the shape for
// which the paper's pattern matching selects the linear layout (1D
// Ising, GHZ, W, VQE, graph-state circuits). Isolated vertices are
// permitted; they simply ride along. The second return value is the
// chain order when linear.
func (g *Dense) IsLinearChain() (bool, []int) {
	var ends []int
	active := 0
	for q := 0; q < g.N; q++ {
		switch d := g.Degree(q); {
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
		for j := 0; j < g.N; j++ {
			if j != prev && g.Weight(cur, j) > 0 {
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
func (g *Dense) Density() float64 {
	if g.N < 2 {
		return 0
	}
	pairs := 0
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			if g.Weight(i, j) > 0 {
				pairs++
			}
		}
	}
	return float64(pairs) / float64(g.N*(g.N-1)/2)
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
			for _, v := range g.Neighbors(u) {
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

// BisectK splits verts into a left part of exactly leftSize vertices and
// a right part with the rest, heuristically minimizing the cut weight.
// The implementation is a bounded Kernighan–Lin refinement over a
// degree-seeded initial split — the iterative graph-partitioning
// primitive AutoBraid's placement is built from. rng drives tie-breaking;
// pass a deterministic source for reproducible placements. leftSize is
// clamped to [0, len(verts)].
func (g *Dense) BisectK(verts []int, leftSize int, rng *rand.Rand) (left, right []int) {
	n := len(verts)
	if leftSize < 0 {
		leftSize = 0
	}
	if leftSize > n {
		leftSize = n
	}
	if n == 0 {
		return nil, nil
	}
	if leftSize == 0 {
		return nil, append([]int(nil), verts...)
	}
	if leftSize == n {
		return append([]int(nil), verts...), nil
	}
	// Seed: order by weighted degree within the subset, fill the left half
	// with the heaviest vertices, then let refinement pull partners
	// together.
	subDeg := func(v int) int {
		s := 0
		for _, u := range verts {
			s += g.Weight(v, u)
		}
		return s
	}
	ordered := append([]int(nil), verts...)
	rng.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	insertionSortBy(ordered, subDeg)

	side := map[int]bool{} // true = left
	for i, v := range ordered {
		side[v] = i < leftSize
	}

	// Kernighan–Lin style passes: repeatedly swap the pair with the best
	// cut-weight gain until no positive gain remains (bounded passes).
	gain := func(v int) int {
		// External minus internal weight for v under current sides.
		ext, int_ := 0, 0
		for _, u := range verts {
			if u == v {
				continue
			}
			w := g.Weight(v, u)
			if w == 0 {
				continue
			}
			if side[u] == side[v] {
				int_ += w
			} else {
				ext += w
			}
		}
		return ext - int_
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, a := range verts {
			if !side[a] {
				continue
			}
			for _, b := range verts {
				if side[b] {
					continue
				}
				// Swapping a (left) and b (right) changes the cut by
				// -(gain(a)+gain(b)) + 2*w(a,b).
				delta := gain(a) + gain(b) - 2*g.Weight(a, b)
				if delta > 0 {
					side[a], side[b] = false, true
					improved = true
					break // a moved sides; restart with the next left vertex
				}
			}
		}
		if !improved {
			break
		}
	}
	for _, v := range verts {
		if side[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}

// insertionSortBy sorts vs by descending key(v), stably.
func insertionSortBy(vs []int, key func(int) int) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		k := key(v)
		j := i - 1
		for j >= 0 && key(vs[j]) < k {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}
