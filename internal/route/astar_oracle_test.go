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
// is the oracle AStar.search, with its one-record state, its two-level
// open set and its heap-skipping expansion, must match decision for
// decision.
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

// FuzzAStarMatchesHeapSearch holds AStar.search to heapSearch over a
// fuzzed sequence of searches, adds and resets on one AStar and one
// Occupancy. The grid is 1–80 tiles wide (so vertex rows straddle 64-bit
// words) and 1–12 high, with tile factory%tiles reserved and the
// defects and congestion field drawn from defectSeed. Each op byte's top
// two bits pick a search without (0) or with (1) the congestion field,
// between the vertices named by the next two little-endian uint16s; an
// add (2) of the last path found, or, when bit 0 is set or no path was
// found yet, of a random walk of (op>>1)&15 steps from the vertex the
// next uint16 names; or a Reset (3). A nonzero
// restart starts the search stamps that many searches below their
// restart after the first search. Every search must match: the same ok,
// path, Searches and Pops. Run the seed corpus with `go test`; extend
// with `go test -fuzz=FuzzAStarMatchesHeapSearch`.
func FuzzAStarMatchesHeapSearch(f *testing.F) {
	f.Add(uint8(4), uint8(4), int64(1), uint16(3), uint8(0),
		[]byte{0x00, 0, 0, 24, 0, 0x80, 0x40, 5, 0, 1, 0, 0x00, 0, 0, 24, 0, 0xc0, 0x41, 2, 0, 20, 0})
	f.Add(uint8(70), uint8(3), int64(2), uint16(140), uint8(0),
		[]byte{0x00, 0, 0, 0x1f, 1, 0x80, 0x1f, 70, 0, 0x00, 71, 0, 0x0f, 1, 0x81, 3, 1, 0x40, 5, 0, 0x3a, 1, 0xc0, 0x00, 10, 0, 0x10, 1})
	f.Add(uint8(66), uint8(4), int64(3), uint16(7), uint8(3),
		[]byte{0x00, 1, 0, 0x40, 1, 0x00, 2, 0, 0x41, 1, 0x40, 3, 0, 0x42, 1, 0x00, 4, 0, 0x43, 1, 0x9f, 80, 0, 0x00, 5, 0, 0x44, 1})
	f.Fuzz(func(t *testing.T, w, h uint8, defectSeed int64, factory uint16, restart uint8, ops []byte) {
		g := grid.New(1+int(w)%80, 1+int(h)%12)
		g.ReserveTile(int(factory) % g.Tiles())
		rng := rand.New(rand.NewSource(defectSeed))
		addRandomDefects(rng, g)
		n := g.NumVertices()
		cong := make([]int32, n)
		for i := range cong {
			cong[i] = int32(rng.Intn(1100))
		}
		occ := NewOccupancy(g)
		var a AStar
		var ref heapSearch
		var last Path
		var nbr []int
		u16 := func(i int) int { return int(ops[i]) | int(ops[i+1])<<8 }
		for i := 0; i < len(ops); {
			op := ops[i]
			i++
			switch op >> 6 {
			case 0, 1:
				if i+4 > len(ops) {
					return
				}
				src, dst := u16(i)%n, u16(i+2)%n
				i += 4
				a.Cong, ref.cong = nil, nil
				if op>>6 == 1 {
					a.Cong, ref.cong = cong, cong
				}
				before, refBefore := a.stats, ref.stats
				p, ok := a.search(g, occ, src, dst, nil)
				want, wantOK := ref.search(g, occ, src, dst)
				if ok != wantOK || !slices.Equal(p, want) {
					t.Fatalf("cong %v: search(%d, %d) = %v %v, heap search %v %v", a.Cong != nil, src, dst, p, ok, want, wantOK)
				}
				got := SearchStats{a.stats.Searches - before.Searches, a.stats.Pops - before.Pops}
				exp := SearchStats{ref.stats.Searches - refBefore.Searches, ref.stats.Pops - refBefore.Pops}
				if got != exp {
					t.Fatalf("cong %v: search(%d, %d) counted %+v, heap search %+v", a.Cong != nil, src, dst, got, exp)
				}
				if ok {
					last = p
				}
				if restart != 0 && a.stats.Searches == 1 {
					a.epoch = math.MaxInt32 - int32(restart)
				}
			case 2:
				if last != nil && op&1 == 0 {
					occ.Add(last)
					continue
				}
				if i+2 > len(ops) {
					return
				}
				v := u16(i) % n
				i += 2
				p := Path{v}
				for s := 0; s < int(op>>1)&15; s++ {
					nbr = g.VertexNeighbors(v, nbr[:0])
					if len(nbr) == 0 {
						break
					}
					v = nbr[rng.Intn(len(nbr))]
					p = append(p, v)
				}
				occ.Add(p)
			default:
				occ.Reset()
			}
		}
	})
}
