// Package order implements the gate-ordering strategies the paper
// compares in Fig. 8b. Each cycle the router collects the ready set — the
// two-qubit gates whose both operands have reached the gate at the front
// of their per-qubit lists — and asks a Strategy in which order to attempt
// braiding them. Order matters: earlier gates grab the uncongested lattice.
//
//   - Proposed — HiLight's fast ordering: the ASAP ready set discovered by
//     scanning the per-qubit gate lists (Alg. 2), attempted shortest braid
//     first (ties in program order). Short braids consume the least
//     lattice, so packing them first maximizes the braids per cycle; the
//     sort is a single O(k log k) pass, no auxiliary graph is built, and
//     that is where the runtime win over LLG comes from.
//   - Ascending / Descending — sort the ready set by gate index.
//   - Random — shuffle (the paper averages 100 trials).
//   - LLG — the AutoBraid-style ordering: build a conflict graph between
//     ready gates (braids whose tile bounding boxes overlap cannot
//     coexist), extract greedy maximal independent sets, longest braids
//     first. The recurrent graph construction is what the paper blames for
//     AutoBraid's runtime.
package order

import (
	"math/rand"
	"sort"

	"hilight/internal/graph"
	"hilight/internal/grid"
)

// Ready describes one executable two-qubit gate for ordering purposes.
type Ready struct {
	Gate    int // index into the circuit's gate slice
	CtlTile int
	TgtTile int
	// Height is the length of the longest chain of dependent two-qubit
	// gates hanging below this one (0 = nothing depends on it). The
	// router fills it from a one-time backward sweep; only the
	// CriticalPath strategy consumes it.
	Height int
}

// Strategy orders the ready set. Implementations must return a
// permutation of ready (they may reorder in place and return the slice).
type Strategy interface {
	Order(ready []Ready, g *grid.Grid) []Ready
	Name() string
}

// Proposed is HiLight's ordering: shortest braid first, ties broken by
// program order ("the shortest path between qubits can be an optimal path
// to minimize routing congestion", §3.2.2).
type Proposed struct{}

// Name implements Strategy.
func (Proposed) Name() string { return "proposed" }

// Order implements Strategy. The sort is a hand-rolled binary-insertion
// sort rather than sort.SliceStable: it is allocation-free (this runs in
// the router's per-cycle hot loop), produces the identical stable
// ordering, and ready sets are small enough (threshold 4 up to a few
// dozen) that insertion sort also wins on time.
func (Proposed) Order(ready []Ready, g *grid.Grid) []Ready {
	less := func(a, b Ready) bool {
		da := g.Dist(a.CtlTile, a.TgtTile)
		db := g.Dist(b.CtlTile, b.TgtTile)
		if da != db {
			return da < db
		}
		return a.Gate < b.Gate
	}
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && less(ready[j], ready[j-1]); j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}
	return ready
}

// Ascending sorts the ready set by ascending gate index.
type Ascending struct{}

// Name implements Strategy.
func (Ascending) Name() string { return "ascending" }

// Order implements Strategy.
func (Ascending) Order(ready []Ready, _ *grid.Grid) []Ready {
	sort.Slice(ready, func(i, j int) bool { return ready[i].Gate < ready[j].Gate })
	return ready
}

// Descending sorts the ready set by descending gate index.
type Descending struct{}

// Name implements Strategy.
func (Descending) Name() string { return "descending" }

// Order implements Strategy.
func (Descending) Order(ready []Ready, _ *grid.Grid) []Ready {
	sort.Slice(ready, func(i, j int) bool { return ready[i].Gate > ready[j].Gate })
	return ready
}

// Random shuffles the ready set. Rng must be non-nil; pass a seeded
// source for reproducible schedules.
type Random struct {
	Rng *rand.Rand
}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Order implements Strategy.
func (r Random) Order(ready []Ready, _ *grid.Grid) []Ready {
	r.Rng.Shuffle(len(ready), func(i, j int) { ready[i], ready[j] = ready[j], ready[i] })
	return ready
}

// CriticalPath is an extension strategy beyond the paper: attempt gates
// with the longest dependent chain first (ties: shortest braid, then
// program order). Gates on the circuit's critical path cannot afford to
// be deferred — every deferral stretches the whole schedule — while
// leaf gates can wait for a sparser cycle.
type CriticalPath struct{}

// Name implements Strategy.
func (CriticalPath) Name() string { return "critical-path" }

// Order implements Strategy.
func (CriticalPath) Order(ready []Ready, g *grid.Grid) []Ready {
	sort.SliceStable(ready, func(i, j int) bool {
		if ready[i].Height != ready[j].Height {
			return ready[i].Height > ready[j].Height
		}
		di := g.Dist(ready[i].CtlTile, ready[i].TgtTile)
		dj := g.Dist(ready[j].CtlTile, ready[j].TgtTile)
		if di != dj {
			return di < dj
		}
		return ready[i].Gate < ready[j].Gate
	})
	return ready
}

// LLG is the AutoBraid-style ordering. For every invocation it constructs
// a fresh conflict graph over the ready gates — two gates conflict when
// the bounding boxes of their tile pairs (expanded to the routing lattice)
// overlap — and emits greedy maximal independent sets, preferring longer
// braids, until the ready set is exhausted.
type LLG struct{}

// Name implements Strategy.
func (LLG) Name() string { return "llg" }

// Order implements Strategy.
func (LLG) Order(ready []Ready, g *grid.Grid) []Ready {
	n := len(ready)
	if n <= 1 {
		return ready
	}
	// Bounding box of each braid on the tile lattice.
	type box struct{ x0, y0, x1, y1 int }
	boxes := make([]box, n)
	length := make([]int, n)
	for i, r := range ready {
		ax, ay := g.TileXY(r.CtlTile)
		bx, by := g.TileXY(r.TgtTile)
		boxes[i] = box{min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)}
		length[i] = g.Dist(r.CtlTile, r.TgtTile)
	}
	// Conflict graph, rebuilt every call (the cost the paper measures).
	var conflicts [][2]int32
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Boxes sharing a tile row/column boundary still conflict:
			// braids hug tile corners, so expand by nothing but compare
			// with closed intervals.
			if boxes[i].x0 <= boxes[j].x1 && boxes[j].x0 <= boxes[i].x1 &&
				boxes[i].y0 <= boxes[j].y1 && boxes[j].y0 <= boxes[i].y1 {
				conflicts = append(conflicts, [2]int32{int32(i), int32(j)})
			}
		}
	}
	cg := graph.NewSparse(n, len(conflicts), func(k int) (int, int) {
		return int(conflicts[k][0]), int(conflicts[k][1])
	})
	// Preference: longest braids first (they are hardest to place late).
	pref := make([]int, n)
	for i := range pref {
		pref[i] = i
	}
	sort.Slice(pref, func(a, b int) bool {
		if length[pref[a]] != length[pref[b]] {
			return length[pref[a]] > length[pref[b]]
		}
		return ready[pref[a]].Gate < ready[pref[b]].Gate
	})
	var out []Ready
	taken := make([]bool, n)
	remaining := n
	for remaining > 0 {
		var cand []int
		for _, i := range pref {
			if !taken[i] {
				cand = append(cand, i)
			}
		}
		set := cg.GreedyIndependentSet(cand)
		if len(set) == 0 {
			// Conflict graph says nothing fits together; emit one.
			set = cand[:1]
		}
		for _, i := range set {
			if !taken[i] {
				taken[i] = true
				remaining--
				out = append(out, ready[i])
			}
		}
	}
	return out
}
