package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// build returns the graph on n vertices in which each pair adds weight
// 1 to its edge, as a Sparse and as the Dense oracle.
func build(n int, pairs [][2]int) (*Sparse, *Dense) {
	d := NewDense(n)
	for _, p := range pairs {
		d.AddEdge(p[0], p[1], 1)
	}
	return NewSparse(n, len(pairs), func(i int) (int, int) { return pairs[i][0], pairs[i][1] }), d
}

// repeat appends w copies of the pair {u,v} to pairs: an edge of weight w.
func repeat(pairs [][2]int, u, v, w int) [][2]int {
	for ; w > 0; w-- {
		pairs = append(pairs, [2]int{u, v})
	}
	return pairs
}

// weight returns the weight of edge {u,v} in g, read off u's row.
func weight(g *Sparse, u, v int) int {
	for k, nb := range g.Neighbors(u) {
		if int(nb) == v {
			return int(g.Weights(u)[k])
		}
	}
	return 0
}

func TestSparseBasics(t *testing.T) {
	var pairs [][2]int
	pairs = repeat(pairs, 0, 1, 3)
	pairs = repeat(pairs, 1, 2, 1)
	pairs = repeat(pairs, 2, 2, 9) // self-loop ignored
	g, _ := build(4, pairs)
	if weight(g, 0, 1) != 3 || weight(g, 1, 0) != 3 {
		t.Error("weights not symmetric")
	}
	if weight(g, 2, 2) != 0 {
		t.Error("self-loop stored")
	}
	if g.WeightedDegree(1) != 4 {
		t.Errorf("WeightedDegree(1) = %d, want 4", g.WeightedDegree(1))
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	// Each edge's weight counts once at either end.
	sum := 0
	for u := 0; u < g.N; u++ {
		sum += g.WeightedDegree(u)
	}
	if sum != 2*4 {
		t.Errorf("weighted degrees sum to %d, want 8", sum)
	}
	if g.MaxWeightVertex() != 1 {
		t.Errorf("MaxWeightVertex = %d", g.MaxWeightVertex())
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = g.Neighbors(1) }); allocs != 0 {
		t.Errorf("Neighbors: %.1f allocs, want 0", allocs)
	}
}

func TestNewSparsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	NewSparse(-1, 0, nil)
}

// randomMultigraph returns the pairs of a seeded random multigraph on n
// vertices of one of five shapes: uniform pairs (self-loops included),
// a chain, a star, a complete graph on some of the vertices, or a chain
// beside a cycle. Edges repeat, pairs arrive shuffled in either
// orientation, and vertices outside the shape stay isolated.
func randomMultigraph(rng *rand.Rand, n int) [][2]int {
	var pairs [][2]int
	perm := rng.Perm(n)
	k := 2 + rng.Intn(n-1) // vertices in the shape
	w := func() int { return 1 + rng.Intn(3) }
	switch rng.Intn(5) {
	case 0:
		for i := rng.Intn(4 * n); i > 0; i-- {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
	case 1:
		for i := 1; i < k; i++ {
			pairs = repeat(pairs, perm[i-1], perm[i], w())
		}
	case 2:
		for i := 1; i < k; i++ {
			pairs = repeat(pairs, perm[0], perm[i], w())
		}
	case 3:
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				pairs = repeat(pairs, perm[i], perm[j], w())
			}
		}
	case 4:
		for i := 1; i < k; i++ {
			pairs = repeat(pairs, perm[i-1], perm[i], w())
		}
		if n-k >= 3 {
			c := perm[k:]
			for i := range c {
				pairs = repeat(pairs, c[i], c[(i+1)%len(c)], w())
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for i := range pairs {
		if rng.Intn(2) == 0 {
			pairs[i][0], pairs[i][1] = pairs[i][1], pairs[i][0]
		}
	}
	return pairs
}

// TestSparseMatchesDense holds Sparse to the Dense oracle on seeded
// random multigraphs: rows (order, degrees and pair weights), the degree
// queue, the chain test and its order, density, breadth-first orders,
// the heaviest vertex, greedy independent sets and bisections, the
// last two also on the rng stream they leave behind.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(40)
		pairs := randomMultigraph(rng, n)
		s, d := build(n, pairs)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (n=%d, %d pairs): %s", trial, n, len(pairs), fmt.Sprintf(format, args...))
		}
		for u := 0; u < n; u++ {
			row := make([]int, 0, s.Degree(u))
			for k, v := range s.Neighbors(u) {
				row = append(row, int(v))
				if got, want := int(s.Weights(u)[k]), d.Weight(u, int(v)); got != want {
					fail("weight(%d,%d) = %d, want %d", u, v, got, want)
				}
			}
			if want := d.Neighbors(u); !slices.Equal(row, want) {
				fail("Neighbors(%d) = %v, want %v", u, row, want)
			}
			if s.Degree(u) != d.Degree(u) || s.WeightedDegree(u) != d.WeightedDegree(u) {
				fail("degrees of %d = %d/%d, want %d/%d", u, s.Degree(u), s.WeightedDegree(u), d.Degree(u), d.WeightedDegree(u))
			}
		}
		if got, want := s.QueueByDegree(), d.QueueByDegree(); !slices.Equal(got, want) {
			fail("QueueByDegree = %v, want %v", got, want)
		}
		gotOK, gotChain := s.IsLinearChain()
		wantOK, wantChain := d.IsLinearChain()
		if gotOK != wantOK || !slices.Equal(gotChain, wantChain) {
			fail("IsLinearChain = %v %v, want %v %v", gotOK, gotChain, wantOK, wantChain)
		}
		if s.Density() != d.Density() {
			fail("Density = %v, want %v", s.Density(), d.Density())
		}
		start := rng.Intn(n)
		if got, want := s.BFSOrder(start), d.BFSOrder(start); !slices.Equal(got, want) {
			fail("BFSOrder(%d) = %v, want %v", start, got, want)
		}
		if s.MaxWeightVertex() != d.MaxWeightVertex() {
			fail("MaxWeightVertex = %d, want %d", s.MaxWeightVertex(), d.MaxWeightVertex())
		}
		cand := rng.Perm(n)[:1+rng.Intn(n)]
		if got, want := s.GreedyIndependentSet(cand), d.GreedyIndependentSet(cand); !slices.Equal(got, want) {
			fail("GreedyIndependentSet(%v) = %v, want %v", cand, got, want)
		}
		verts := rng.Perm(n)[:1+rng.Intn(n)]
		leftSize := rng.Intn(len(verts) + 2)
		seed := rng.Int63()
		sRng, dRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		sl, sr := s.BisectK(verts, leftSize, sRng)
		dl, dr := d.BisectK(verts, leftSize, dRng)
		if !slices.Equal(sl, dl) || !slices.Equal(sr, dr) {
			fail("BisectK(%v, %d) = %v | %v, want %v | %v", verts, leftSize, sl, sr, dl, dr)
		}
		if sRng.Int63() != dRng.Int63() {
			fail("BisectK left the rng at a different draw")
		}
	}
}

func TestBFSOrderCoversAllVertices(t *testing.T) {
	var pairs [][2]int
	pairs = repeat(pairs, 0, 1, 1)
	pairs = repeat(pairs, 1, 2, 5)
	pairs = repeat(pairs, 1, 3, 2)
	// 4 and 5 disconnected.
	g, _ := build(6, pairs)
	order := g.BFSOrder(0)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	seen := map[int]bool{}
	for _, v := range order {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Fatalf("not a permutation: %v", order)
	}
	// Heavier neighbor of 1 (vertex 2, weight 5) precedes vertex 3.
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	if pos[2] > pos[3] {
		t.Errorf("heavy-first BFS violated: %v", order)
	}
}

func TestGreedyIndependentSet(t *testing.T) {
	// Path conflict graph 0-1-2: picking in order 0,1,2 gives {0,2}.
	g, _ := build(3, [][2]int{{0, 1}, {1, 2}})
	got := g.GreedyIndependentSet([]int{0, 1, 2})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("MIS = %v", got)
	}
	// Preference order matters: starting at 1 blocks both ends.
	got = g.GreedyIndependentSet([]int{1, 0, 2})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("MIS = %v", got)
	}
}

func TestGreedyIndependentSetIsIndependentAndMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		var pairs [][2]int
		for i := 0; i < n*2; i++ {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		g, _ := build(n, pairs)
		cand := rng.Perm(n)
		set := g.GreedyIndependentSet(cand)
		in := map[int]bool{}
		for _, v := range set {
			in[v] = true
		}
		// Independent: no edge inside the set.
		for _, u := range set {
			for _, v := range set {
				if u != v && weight(g, u, v) > 0 {
					return false
				}
			}
		}
		// Maximal: every candidate outside the set has a neighbor inside.
		for _, v := range cand {
			if in[v] {
				continue
			}
			touches := false
			for _, u := range set {
				if weight(g, u, v) > 0 {
					touches = true
					break
				}
			}
			if !touches {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectSizesAndPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		var pairs [][2]int
		for i := 0; i < n*3; i++ {
			pairs = repeat(pairs, rng.Intn(n), rng.Intn(n), 1+rng.Intn(5))
		}
		g, _ := build(n, pairs)
		verts := rng.Perm(n)
		l, r := g.BisectK(verts, (n+1)/2, rng)
		if len(l)+len(r) != n {
			return false
		}
		if len(l) != (n+1)/2 {
			return false
		}
		all := append(append([]int(nil), l...), r...)
		sort.Ints(all)
		for i, v := range all {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectSeparatesClusters(t *testing.T) {
	// Two 4-cliques joined by one light edge: the cut should isolate them.
	var pairs [][2]int
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			pairs = repeat(pairs, i, j, 10)
			pairs = repeat(pairs, i+4, j+4, 10)
		}
	}
	pairs = repeat(pairs, 0, 4, 1)
	g, _ := build(8, pairs)
	rng := rand.New(rand.NewSource(7))
	verts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	l, r := g.BisectK(verts, 4, rng)
	cut := 0
	for _, u := range l {
		for _, v := range r {
			cut += weight(g, u, v)
		}
	}
	if cut != 1 {
		t.Errorf("cut weight = %d, want 1 (l=%v r=%v)", cut, l, r)
	}
}
