package route

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hilight/internal/graph"
	"hilight/internal/grid"
)

// heapSearch is the A* kernel as a plain heap search: per-vertex state
// in four slices, and a push and a pop for every improved neighbor. It
// is the oracle AStar.search, with its one-record state and its
// heap-skipping expansion, must match decision for decision.
type heapSearch struct {
	cong     []int32
	open     graph.MinHeap
	gScore   []int
	cameFrom []int
	closed   []bool
	stamp    []int
	epoch    int
	stats    SearchStats
}

func (a *heapSearch) pri(f, v int) int {
	if a.cong == nil {
		return f
	}
	return f<<10 | int(min(a.cong[v], 1023))
}

func (a *heapSearch) touch(v int) {
	if a.stamp[v] != a.epoch {
		a.stamp[v] = a.epoch
		a.gScore[v] = 1 << 30
		a.cameFrom[v] = -1
		a.closed[v] = false
	}
}

func (a *heapSearch) search(g *grid.Grid, occ *Occupancy, src, dst int) (Path, bool) {
	if occ.VertexUsed(src) || occ.VertexUsed(dst) {
		return nil, false
	}
	if src == dst {
		return Path{src}, true
	}
	if n := g.NumVertices(); len(a.gScore) < n {
		a.gScore = make([]int, n)
		a.cameFrom = make([]int, n)
		a.closed = make([]bool, n)
		a.stamp = make([]int, n)
	}
	a.stats.Searches++
	a.epoch++
	a.open.Reset()
	a.touch(src)
	a.gScore[src] = 0
	a.open.Push(graph.PackKey(src, a.pri(g.VertexDist(src, dst), src)))
	var nbr []int
	for a.open.Len() > 0 {
		cur := a.open.Pop().Value()
		a.stats.Pops++
		if cur == dst {
			var p Path
			for v := dst; v != -1; v = a.cameFrom[v] {
				p = append(p, v)
			}
			slices.Reverse(p)
			return p, true
		}
		if a.closed[cur] {
			continue
		}
		a.closed[cur] = true
		nbr = g.VertexNeighbors(cur, nbr[:0])
		for _, nb := range nbr {
			a.touch(nb)
			if a.closed[nb] || occ.VertexUsed(nb) || occ.EdgeUsed(g, cur, nb) {
				continue
			}
			if t := a.gScore[cur] + 1; t < a.gScore[nb] {
				a.gScore[nb] = t
				a.cameFrom[nb] = cur
				a.open.Push(graph.PackKey(nb, a.pri(t+g.VertexDist(nb, dst), nb)))
			}
		}
	}
	return nil, false
}

// TestAStarMatchesHeapSearch holds AStar.search to heapSearch over
// seeded random occupancies (defects, lattices whose rows straddle
// 64-bit words, braids added as the searches succeed), without and with
// a congestion field: the same ok, the same path, and the same Searches
// and Pops per call. Some runs start the stamps just below their restart,
// so searches cross it.
func TestAStarMatchesHeapSearch(t *testing.T) {
	calls := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, occ := randomGrid(rng)
		n := g.NumVertices()
		cong := make([]int32, n)
		for i := range cong {
			cong[i] = int32(rng.Intn(1100)) // some above the 1023 clamp
		}
		for _, withCong := range []bool{false, true} {
			var a AStar
			var ref heapSearch
			if withCong {
				a.Cong, ref.cong = cong, cong
			}
			for trial := 0; trial < 40; trial++ {
				if trial == 1 && rng.Intn(2) == 0 {
					a.epoch = math.MaxInt32 - 2
				}
				src, dst := rng.Intn(n), rng.Intn(n)
				before, refBefore := a.stats, ref.stats
				p, ok := a.search(g, occ, src, dst, nil)
				want, wantOK := ref.search(g, occ, src, dst)
				calls++
				if ok != wantOK || !slices.Equal(p, want) {
					t.Logf("seed %d cong %v: search(%d, %d) = %v %v, heap search %v %v", seed, withCong, src, dst, p, ok, want, wantOK)
					return false
				}
				got := SearchStats{a.stats.Searches - before.Searches, a.stats.Pops - before.Pops}
				exp := SearchStats{ref.stats.Searches - refBefore.Searches, ref.stats.Pops - refBefore.Pops}
				if got != exp {
					t.Logf("seed %d cong %v: search(%d, %d) counted %+v, heap search %+v", seed, withCong, src, dst, got, exp)
					return false
				}
				if ok && rng.Intn(3) == 0 {
					occ.Add(p)
				}
			}
			occ.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	if calls == 0 {
		t.Error("no search compared")
	}
}
