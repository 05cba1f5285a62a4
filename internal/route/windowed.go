package route

import (
	"math/bits"

	"hilight/internal/grid"
)

// Components is a connected-component labeling of the free routing
// lattice under one occupancy snapshot. It exists to make *failed*
// path-finding cheap: A* (and any other complete finder) proves "no
// path" only by flooding the entire free region around the source, which
// under congestion is the dominant routing cost. With labels computed
// once per snapshot — a few word-parallel sweeps over the occupancy's
// bit words — the same proof is two bit tests and two run-root loads.
//
// The labeling works on runs: maximal sequences of free vertices along a
// row joined by open east channels. Bit v of free marks a free vertex and
// bit v of start the first vertex of a run; a vertex's run id is the
// number of run starts at or before it, one popcount on top of a per-word
// rank. Runs are unioned wherever a free south channel joins two free
// vertices, and root maps each run to its component's root run. Nothing
// is stored per vertex.
//
// A labeling is exact only for the occupancy state it was computed from.
// Since an occupancy only grows within an epoch, a labeling taken earlier
// in the same epoch still proves two vertices disconnected, though no
// longer connected: the sequential step's complete finders rely on this
// (freeLabels), while the speculative step relabels after each commit.
// The zero value is ready to use, buffers are reused across Compute
// calls, and a computed labeling is safe for concurrent readers.
type Components struct {
	free  []uint64 // bit v: vertex v is free
	start []uint64 // bit v: vertex v is free and starts a run
	rank  []int32  // rank[w]: runs that start in words below w
	root  []int32  // run id → root run id of its component
	link  []uint64 // Compute scratch; bit v: v and v+1 share a run
}

// find resolves a run id to its union-find root with path halving.
func (cc *Components) find(r int32) int32 {
	for cc.root[r] != r {
		cc.root[r] = cc.root[cc.root[r]]
		r = cc.root[r]
	}
	return r
}

// run returns the run id of free vertex v.
func (cc *Components) run(v int) int32 {
	w := v >> 6
	return cc.rank[w] + int32(bits.OnesCount64(cc.start[w]<<(63-uint(v&63)))) - 1
}

// isFree reports bit v of the free mask.
func (cc *Components) isFree(v int) bool { return cc.free[v>>6]>>(uint(v)&63)&1 != 0 }

// Compute labels the free subgraph of g under occ. A vertex is free when
// it is neither occupied nor defective; channels that are occupied,
// defective, or unroutable do not connect.
//
// Every step is word-parallel over the occupancy's bit words, whose
// vertex ids run row-major, so one word may hold the end of a row and the
// start of the next. The east words' row-end bit is always set, so no run
// crosses a row end. A south connection whose west neighbor joins the
// same two runs is skipped, so each pair of vertically adjacent runs is
// unioned once per stretch of shared open channels, not once per channel.
func (cc *Components) Compute(g *grid.Grid, occ *Occupancy) {
	n, vw := g.NumVertices(), g.VW()
	nw := (n + 63) >> 6
	cc.free = sized(cc.free, nw)
	cc.start = sized(cc.start, nw)
	cc.link = sized(cc.link, nw)
	cc.rank = sized(cc.rank, nw)
	for w := range cc.free {
		cc.free[w] = ^occ.vWords[w]
	}
	if tail := n & 63; tail != 0 {
		cc.free[nw-1] &= 1<<uint(tail) - 1
	}

	// Runs: link bit v when v and v+1 are free and the east channel
	// between them is open; a run starts at a free vertex no link enters
	// from the west. carry is the previous word's top link bit.
	runs, carry := int32(0), uint64(0)
	for w, free := range cc.free {
		var next uint64
		if w+1 < nw {
			next = cc.free[w+1]
		}
		link := free & (free>>1 | next<<63) &^ occ.eWords[w]
		start := free &^ (link<<1 | carry)
		carry = link >> 63
		cc.link[w], cc.start[w], cc.rank[w] = link, start, runs
		runs += int32(bits.OnesCount64(start))
	}
	cc.root = sized(cc.root, int(runs))
	for r := range cc.root {
		cc.root[r] = int32(r)
	}

	// Unions: bit v of conn marks a free south channel between free
	// vertices v and v+vw; same marks such a connection whose vertices
	// both link east, which makes the connection east of it redundant.
	carry = 0
	for w := 0; w < nw; w++ {
		conn := cc.free[w] & gatherBits(cc.free, w<<6+vw) &^ occ.sWords[w]
		same := conn & cc.link[w] & gatherBits(cc.link, w<<6+vw)
		conn &^= same<<1 | carry
		carry = same >> 63
		for conn != 0 {
			v := w<<6 + bits.TrailingZeros64(conn)
			conn &= conn - 1
			ra, rb := cc.find(cc.run(v)), cc.find(cc.run(v+vw))
			if ra != rb {
				cc.root[rb] = ra
			}
		}
	}

	// Flatten: each run maps straight to its root.
	for r := range cc.root {
		cc.root[r] = cc.find(int32(r))
	}
}

// gatherBits returns the 64 bits of words starting at bit index i; bits
// past the end read 0.
func gatherBits(words []uint64, i int) uint64 {
	w, lo := i>>6, uint(i&63)
	var out uint64
	if w < len(words) {
		out = words[w] >> lo
	}
	if lo != 0 && w+1 < len(words) {
		out |= words[w+1] << (64 - lo)
	}
	return out
}

// sized returns s with length n, reusing its capacity when it suffices;
// elements are not cleared.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CopyFrom makes cc an independent copy of src's labeling — the cheap
// way to restore a cached snapshot (e.g. the empty-lattice labeling,
// which never changes between cycles) without re-sweeping the lattice.
func (cc *Components) CopyFrom(src *Components) {
	cc.free = append(cc.free[:0], src.free...)
	cc.start = append(cc.start[:0], src.start...)
	cc.rank = append(cc.rank[:0], src.rank...)
	cc.root = append(cc.root[:0], src.root...)
}

// Connected reports whether u and v are both free and reachable from
// each other in the labeled snapshot.
func (cc *Components) Connected(u, v int) bool {
	return cc.isFree(u) && cc.isFree(v) && cc.root[cc.run(u)] == cc.root[cc.run(v)]
}

// Windowed is the parallel router's path-finder: HiLight's
// closest-corner A* wrapped with three accelerations that never change
// which gates are routable, only how fast the answer arrives and which
// corner pair — and which of its shortest paths — is picked.
//
//  1. Free-component pruning (Comp): corner pairs whose endpoints sit in
//     different components of the free lattice are skipped outright, so a
//     gate that cannot route this cycle costs label comparisons instead
//     of up to 16 full-lattice A* floods. Conversely, a same-component
//     pair is guaranteed to yield a path, so no search started here ever
//     fails. Pruning is exact for complete finders: A* succeeds iff the
//     endpoints are connected in the free subgraph.
//  2. Corridor fast path: before searching, the straight or two-bend
//     axis-aligned path is probed with word-wide Occupancy row scans
//     (HRunFree). An axis-aligned hit has exactly the pair's Manhattan
//     length — the global lower bound — so taking it preserves A*'s
//     shortest-path quality while skipping the search entirely.
//  3. Windowed-lookahead congestion (Cong): with a congestion field
//     attached, equal-distance corner pairs, the two L-bend orientations,
//     and equal-length A* expansions all tie-break toward less congested
//     vertices, steering braids away from corridors the next k dependency
//     layers are about to need.
//
// Both hooks are optional and read-only during Find: with Comp and Cong
// nil, Windowed accepts and rejects exactly like AStar (paths may differ
// among equal-length choices). A Windowed is not safe for concurrent
// use; distinct instances may share one Comp and Cong, which Find only
// reads. The speculative route step runs on one goroutine and drives one
// instance through both its speculation and its finish phase.
type Windowed struct {
	// Comp, when non-nil, prunes disconnected corner pairs. It must be
	// recomputed whenever the occupancy changes; a stale labeling breaks
	// the no-failed-search guarantee and can mis-defer gates.
	Comp *Components
	// Cong, when non-nil, is the per-vertex congestion field used for
	// tie-breaking. Shared read-only with the embedded A* core.
	Cong []int32

	astar AStar
	pairs [16]cornerPair
}

// Name implements Finder.
func (w *Windowed) Name() string { return "windowed" }

// Stats implements StatsReporter: corridor hits perform no search, so
// the stats count only the A* work that remained.
func (w *Windowed) Stats() SearchStats { return w.astar.stats }

// Find implements Finder.
func (w *Windowed) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	pairs := &w.pairs
	cornerPairsByDistance(g, ctlTile, tgtTile, pairs)
	if w.Cong != nil {
		// Stable secondary sort: congestion orders pairs only within
		// equal-distance runs, so the paper's distance-first pair
		// preference is preserved.
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairs[j].d == pairs[j-1].d &&
				w.pairCong(pairs[j]) < w.pairCong(pairs[j-1]); j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
	}
	w.astar.Cong = w.Cong
	for _, pr := range pairs {
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) {
			continue
		}
		if w.Comp != nil && !w.Comp.Connected(pr.u, pr.v) {
			continue
		}
		if pr.u == pr.v {
			return append(buf[:0], pr.u), true
		}
		if p, ok := w.corridor(g, occ, pr.u, pr.v, buf); ok {
			return p, true
		}
		if p, ok := w.astar.search(g, occ, pr.u, pr.v, buf); ok {
			return p, true
		}
	}
	return nil, false
}

// pairCong is a corner pair's congestion key: the sum at its endpoints.
func (w *Windowed) pairCong(pr cornerPair) int32 {
	return w.Cong[pr.u] + w.Cong[pr.v]
}

// corridor tries the axis-aligned paths between two free corners: the
// straight run when the corners share a row or column, otherwise the two
// L bends — ordered by pivot congestion when a field is attached.
func (w *Windowed) corridor(g *grid.Grid, occ *Occupancy, src, dst int, buf Path) (Path, bool) {
	sx, sy := g.VertexXY(src)
	dx, dy := g.VertexXY(dst)
	hFirst := true
	switch {
	case sx == dx:
		hFirst = false
	case sy == dy:
	default:
		if w.Cong != nil {
			// Prefer the bend whose pivot corner is less congested.
			if w.Cong[g.VertexID(sx, dy)] < w.Cong[g.VertexID(dx, sy)] {
				hFirst = false
			}
		}
	}
	if p, ok := lWalk(g, occ, src, dst, hFirst, buf); ok {
		return p, true
	}
	if sx == dx || sy == dy {
		return nil, false // straight runs have only one shape
	}
	return lWalk(g, occ, src, dst, !hFirst, buf)
}
