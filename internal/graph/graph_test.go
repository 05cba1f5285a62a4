package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	g := NewDense(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 2, 9) // self-loop ignored
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Error("weights not symmetric")
	}
	if g.Weight(2, 2) != 0 {
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
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	NewDense(-1)
}

func TestBFSOrderCoversAllVertices(t *testing.T) {
	g := NewDense(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 5)
	g.AddEdge(1, 3, 2)
	// 4 and 5 disconnected.
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
	g := NewDense(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
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
		g := NewDense(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		cand := rng.Perm(n)
		set := g.GreedyIndependentSet(cand)
		in := map[int]bool{}
		for _, v := range set {
			in[v] = true
		}
		// Independent: no edge inside the set.
		for _, u := range set {
			for _, v := range set {
				if u != v && g.Weight(u, v) > 0 {
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
				if g.Weight(u, v) > 0 {
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
		g := NewDense(n)
		for i := 0; i < n*3; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(5))
		}
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
	g := NewDense(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 10)
			g.AddEdge(i+4, j+4, 10)
		}
	}
	g.AddEdge(0, 4, 1)
	rng := rand.New(rand.NewSource(7))
	verts := []int{0, 1, 2, 3, 4, 5, 6, 7}
	l, r := g.BisectK(verts, 4, rng)
	cut := 0
	for _, u := range l {
		for _, v := range r {
			cut += g.Weight(u, v)
		}
	}
	if cut != 1 {
		t.Errorf("cut weight = %d, want 1 (l=%v r=%v)", cut, l, r)
	}
}

// priorityOf returns the priority field of k.
func priorityOf(k HeapKey) int { return int(k >> heapValueBits) }

func TestMinHeapOrdering(t *testing.T) {
	var h MinHeap
	input := []int{5, 3, 8, 1, 9, 2, 7}
	for _, p := range input {
		h.Push(PackKey(p*10, p))
	}
	prev := -1
	for h.Len() > 0 {
		k := h.Pop()
		v, p := k.Value(), priorityOf(k)
		if p < prev {
			t.Fatalf("heap order violated: %d after %d", p, prev)
		}
		if v != p*10 {
			t.Fatalf("value/priority pairing lost: %d/%d", v, p)
		}
		prev = p
	}
}

func TestMinHeapTieBreaksOnValue(t *testing.T) {
	var h MinHeap
	h.Push(PackKey(9, 1))
	h.Push(PackKey(2, 1))
	h.Push(PackKey(5, 1))
	v := h.Pop().Value()
	if v != 2 {
		t.Errorf("tie break = %d, want 2", v)
	}
}

func TestMinHeapProperty(t *testing.T) {
	f := func(ps []uint8) bool {
		var h MinHeap
		for i, p := range ps {
			h.Push(PackKey(i, int(p)))
		}
		h.Push(PackKey(len(ps), 0))
		prev := -1
		for h.Len() > 0 {
			p := priorityOf(h.Pop())
			if p < prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinHeapReset(t *testing.T) {
	var h MinHeap
	h.Push(PackKey(1, 1))
	h.Reset()
	if h.Len() != 0 {
		t.Error("Reset did not empty heap")
	}
	h.Push(PackKey(2, 2))
	if v := h.Pop().Value(); v != 2 {
		t.Error("heap unusable after Reset")
	}
}

// TestMinHeapMatchesSortedReference holds the packed-key heap to the
// (priority, value) order, found by a scan, over seeded random pushes and pops: plain and
// congestion-shifted (f<<10|c) A* priorities, values up to the vertex
// count of a grid of sched.MaxGridTiles (2^22) tiles, the largest
// priority and value a key holds, and runs of equal priorities, so ties
// break on value.
func TestMinHeapMatchesSortedReference(t *testing.T) {
	const maxGridVertices = 2*(1<<22+1) + 1 // a 1×2^22 grid's (W+1)(H+1)
	type item struct{ value, priority int }
	rng := rand.New(rand.NewSource(7))
	value := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(64)
		case 1:
			return maxGridVertices - 1 - rng.Intn(64)
		case 2:
			return 1<<heapValueBits - 1 - rng.Intn(64)
		}
		return rng.Intn(maxGridVertices)
	}
	priority := func() int {
		f := rng.Intn(1 << 25)
		if rng.Intn(3) == 0 {
			f = rng.Intn(8) // runs of equal priorities
		}
		switch rng.Intn(4) {
		case 0:
			return f
		case 1:
			return 1<<38 - 1 - rng.Intn(4)
		}
		return f<<10 | rng.Intn(1024)
	}
	var h MinHeap
	var ref []item
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			it := item{value(), priority()}
			h.Push(PackKey(it.value, it.priority))
			ref = append(ref, it)
			continue
		}
		first := 0
		for i, it := range ref {
			if it.priority < ref[first].priority || it.priority == ref[first].priority && it.value < ref[first].value {
				first = i
			}
		}
		if want := ref[first]; h.Min() != PackKey(want.value, want.priority) {
			t.Fatalf("step %d: Min = %#x, want the key of (%d, %d)", step, h.Min(), want.value, want.priority)
		}
		k := h.Pop()
		v, p := k.Value(), priorityOf(k)
		if want := ref[first]; v != want.value || p != want.priority {
			t.Fatalf("step %d: Pop = (%d, %d), want (%d, %d)", step, v, p, want.value, want.priority)
		}
		ref = append(ref[:first], ref[first+1:]...)
		if h.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, h.Len(), len(ref))
		}
	}
}
