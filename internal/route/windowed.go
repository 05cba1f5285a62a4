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
// once per snapshot — one sweep over the occupancy's word-packed mirror
// — the same proof is a pair of array loads: two free vertices are
// connected iff their labels match.
//
// A labeling is exact only for the occupancy state it was computed from.
// Since an occupancy only grows within an epoch, a labeling taken earlier
// in the same epoch still proves two vertices disconnected, though no
// longer connected: the sequential step's complete finders rely on this
// (freeLabels), while the speculative step relabels after each commit.
// The zero value is ready to use, buffers are reused across Compute
// calls, and a computed labeling is safe for concurrent readers.
type Components struct {
	label  []int32
	parent []int32
}

// find resolves a run id to its union-find root with path halving.
func (cc *Components) find(r int32) int32 {
	for cc.parent[r] != r {
		cc.parent[r] = cc.parent[cc.parent[r]]
		r = cc.parent[r]
	}
	return r
}

// Compute labels the free subgraph of g under occ: label[v] is -1 for an
// occupied (or defective) vertex and a positive component id otherwise.
// Channels that are occupied, defective, or unroutable do not connect.
//
// The sweep is word-parallel over the occupancy mirror: each vertex row
// is split into maximal free runs (consecutive free vertices joined by
// open east channels), adjacent rows' runs are unioned wherever a free
// south channel joins two free vertices, and a final pass flattens run
// ids to component roots. No per-edge EdgeID/EdgeRoutable calls at all.
func (cc *Components) Compute(g *grid.Grid, occ *Occupancy) {
	n := g.NumVertices()
	vw, vh := g.VW(), g.VH()
	if cap(cc.label) < n {
		cc.label = make([]int32, n)
	}
	cc.label = cc.label[:n]
	cc.parent = cc.parent[:0]

	// Pass 1: row runs. A run extends from vertex x to x+1 iff both are
	// free and the east channel between them is open.
	for y := 0; y < vh; y++ {
		row := y * vw
		run := int32(-1)
		for x0 := 0; x0 < vw; x0 += 64 {
			cnt := vw - x0
			if cnt > 64 {
				cnt = 64
			}
			free := ^gatherBits(occ.vWordAt, row+x0, cnt)
			eastOpen := ^gatherBits(occ.eWordAt, row+x0, cnt)
			if cnt < 64 {
				free &= (1 << uint(cnt)) - 1
			}
			for x := 0; x < cnt; x++ {
				v := row + x0 + x
				if free>>uint(x)&1 == 0 {
					cc.label[v] = -1
					run = -1
					continue
				}
				if run < 0 {
					run = int32(len(cc.parent))
					cc.parent = append(cc.parent, run)
				}
				cc.label[v] = run
				if eastOpen>>uint(x)&1 == 0 {
					run = -1 // channel to x+1 blocked; next free vertex starts a run
				}
			}
		}
	}

	// Pass 2: vertical unions. Bit x of conn marks a free south channel
	// between free vertices (x,y) and (x,y+1).
	for y := 0; y+1 < vh; y++ {
		row := y * vw
		for x0 := 0; x0 < vw; x0 += 64 {
			cnt := vw - x0
			if cnt > 64 {
				cnt = 64
			}
			conn := ^gatherBits(occ.vWordAt, row+x0, cnt) &
				^gatherBits(occ.vWordAt, row+vw+x0, cnt) &
				^gatherBits(occ.sWordAt, row+x0, cnt)
			if cnt < 64 {
				conn &= (1 << uint(cnt)) - 1
			}
			for conn != 0 {
				x := bits.TrailingZeros64(conn)
				conn &= conn - 1
				v := row + x0 + x
				ra, rb := cc.find(cc.label[v]), cc.find(cc.label[v+vw])
				if ra != rb {
					cc.parent[rb] = ra
				}
			}
		}
	}

	// Pass 3: flatten run ids to 1-based component roots — roots are
	// resolved once per run, so the per-vertex step is a table load.
	for r := range cc.parent {
		cc.parent[r] = cc.find(int32(r))
	}
	for v := 0; v < n; v++ {
		if cc.label[v] >= 0 {
			cc.label[v] = cc.parent[cc.label[v]] + 1
		}
	}
}

// CopyFrom makes cc an independent copy of src's labeling — the cheap
// way to restore a cached snapshot (e.g. the empty-lattice labeling,
// which never changes between cycles) without re-sweeping the lattice.
func (cc *Components) CopyFrom(src *Components) {
	cc.label = append(cc.label[:0], src.label...)
}

// Connected reports whether u and v are both free and reachable from
// each other in the labeled snapshot.
func (cc *Components) Connected(u, v int) bool {
	lu := cc.label[u]
	return lu > 0 && lu == cc.label[v]
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
// use, but distinct instances may share one Comp and Cong — which is how
// the parallel router's workers speculate concurrently against a shared
// snapshot.
type Windowed struct {
	// Comp, when non-nil, prunes disconnected corner pairs. It must be
	// recomputed whenever the occupancy changes; a stale labeling breaks
	// the no-failed-search guarantee and can mis-defer gates.
	Comp *Components
	// Cong, when non-nil, is the per-vertex congestion field used for
	// tie-breaking. Shared read-only with the embedded A* core.
	Cong []int32

	astar AStar
}

// Name implements Finder.
func (w *Windowed) Name() string { return "windowed" }

// Stats implements StatsReporter: corridor hits perform no search, so
// the stats count only the A* work that remained.
func (w *Windowed) Stats() SearchStats { return w.astar.stats }

// Find implements Finder.
func (w *Windowed) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	pairs := cornerPairsByDistance(g, ctlTile, tgtTile)
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
