// Package route implements braiding paths on the surface-code routing
// lattice and the path-finders the paper compares:
//
//   - AStar — HiLight's fast path-finding (Alg. 2 lines 14–17): pick the
//     corner pair of the two tiles with minimum Manhattan distance, then
//     run a single A* search between them.
//   - Full16 — the heavyweight baseline of Fig. 9: search all 16 corner
//     pairs and keep the shortest valid path.
//   - StackDFS — the AutoBraid-style stack-based path-finder: an iterative
//     depth-first search that returns the first path it reaches, valid but
//     not necessarily shortest.
//
// A braiding path is a simple sequence of routing vertices; two braids in
// the same cycle conflict when they share any vertex or channel. Braiding
// latency is independent of path length (a constant five-step topological
// transformation), so each cycle executes a set of disjoint braids.
//
// The package is built for an allocation-free steady state: Occupancy is
// a pair of dense epoch-stamped arrays (Reset is an O(1) epoch bump, the
// per-probe cost is one slice load and compare), and Finder.Find writes
// the result into a caller-owned buffer so the router's inner loop never
// touches the heap. See the "Performance architecture" section of
// DESIGN.md for the ownership rules.
package route

import (
	"cmp"
	"fmt"
	"math"

	"hilight/internal/graph"
	"hilight/internal/grid"
)

// Path is one braiding path: the visited routing vertices in order. A
// single-vertex path (adjacent tiles braiding through a shared corner) is
// legal and occupies only that vertex.
type Path []int

// Len returns the channel count of the path (vertices − 1).
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Validate checks that p is a non-empty simple lattice walk on g with
// every vertex alive and every channel routable. It reports the first
// failing step; a repeated vertex, the first position that repeats an
// earlier one, only when every step passes.
func (p Path) Validate(g *grid.Grid) error {
	if len(p) == 0 {
		return fmt.Errorf("route: empty path")
	}
	n := g.NumVertices()
	for i, v := range p {
		if v < 0 || v >= n {
			return fmt.Errorf("route: vertex %d out of range", v)
		}
		if g.VertexDefective(v) {
			return fmt.Errorf("route: vertex %d is defective", v)
		}
		if i == 0 {
			continue
		}
		if g.VertexDist(p[i-1], v) != 1 {
			return fmt.Errorf("route: vertices %d and %d not adjacent", p[i-1], v)
		}
		if !g.EdgeRoutable(p[i-1], v) {
			return fmt.Errorf("route: channel %d-%d not routable", p[i-1], v)
		}
	}
	if i := firstRepeat(p); i >= 0 {
		return fmt.Errorf("route: vertex %d repeated", p[i])
	}
	return nil
}

// firstRepeat returns the first position of p whose vertex repeats an
// earlier one, or -1. Validate runs it once per braid on the warm replay
// and in Schedule.Validate, so it takes O(len) and allocates nothing
// below 65 vertices: an open-addressed table of 128 slots on the stack,
// at most half full, holds each vertex + 1. Vertices are lattice ids,
// which fit in 32 bits on any grid whose coordinate tables fit in
// memory. Longer paths use a map.
func firstRepeat(p Path) int {
	if len(p) <= 64 {
		var table [128]uint32
		for i, v := range p {
			key := uint32(v) + 1
			h := key * 0x9E3779B1 >> 25
			for table[h] != 0 {
				if table[h] == key {
					return i
				}
				h = (h + 1) & 127
			}
			table[h] = key
		}
		return -1
	}
	seen := make(map[int]struct{}, len(p))
	for i, v := range p {
		if _, ok := seen[v]; ok {
			return i
		}
		seen[v] = struct{}{}
	}
	return -1
}

// Occupancy tracks the routing vertices and channels consumed by the
// braids of the current cycle. It is a dense epoch-stamped set sized to
// one grid: an entry is a member iff its stamp is at least the current
// epoch, so Reset — which starts a new cycle — is a single integer
// increment and membership probes are one slice load and compare.
// Defective vertices and channels of the grid are stamped with a sentinel
// greater than any epoch, so every Finder sees them as permanently
// occupied without an extra branch in the probe. An Occupancy is bound to
// the grid it was created for and must not be shared across grids.
//
// Within an epoch an Occupancy only grows: Add and TryAdd, its only
// mutators, only mark vertices and channels taken (TryAdd can stop
// partway, leaving part of a path marked, which still only grows the
// set), and only Reset frees anything, by starting a new epoch. So two
// vertices the free lattice separates stay separated until the next
// Reset — the invariant that lets the complete finders reuse a
// free-component labeling across Find calls (see freeLabels).
//
// Alongside the stamp arrays the set maintains a word-packed mirror —
// one bit per vertex and one per east channel, with per-word epoch
// stamps so Reset stays O(1) — that HRunFree uses to test a whole
// horizontal corridor 64 lattice columns per instruction instead of one.
// Unroutable east channels (factory interiors, defects, dead endpoints)
// are baked into the base words, so a word probe answers the full
// feasibility question the scalar walk would.
type Occupancy struct {
	vStamp []int
	eStamp []int
	epoch  int

	// Word-packed mirror for row probes. vw is the vertex-row stride;
	// bit v of vWords marks vertex v occupied, bit v of eWords marks the
	// east channel leaving vertex v occupied or unroutable. The *Base
	// words hold the permanent (defect/unroutable) bits; a word whose
	// epoch entry is stale reads as its base.
	vw     int
	vWords []uint64
	vBase  []uint64
	vEpoch []int
	eWords []uint64
	eBase  []uint64
	eEpoch []int
	sWords []uint64
	sBase  []uint64
	sEpoch []int
}

// defectEpoch outlives every real epoch: an entry stamped with it is
// occupied forever.
const defectEpoch = 1<<62 - 1

// NewOccupancy returns an occupancy set sized to g's routing lattice,
// with g's defects pre-stamped as permanently occupied.
func NewOccupancy(g *grid.Grid) *Occupancy {
	o := &Occupancy{
		vStamp: make([]int, g.NumVertices()),
		eStamp: make([]int, g.NumEdges()),
		epoch:  1,
	}
	if g.HasDefects() {
		for v := range o.vStamp {
			if g.VertexDefective(v) {
				o.vStamp[v] = defectEpoch
			}
		}
		// Stamp defective channels by scanning each vertex's east and
		// south edges (the two ids EdgeID can produce for it).
		for v := range o.vStamp {
			x, y := g.VertexXY(v)
			if x+1 < g.VW() && g.ChannelDefective(v, g.VertexID(x+1, y)) {
				o.eStamp[2*v] = defectEpoch
			}
			if y+1 < g.VH() && g.ChannelDefective(v, g.VertexID(x, y+1)) {
				o.eStamp[2*v+1] = defectEpoch
			}
		}
	}

	// Build the word-packed mirror: permanent bits in the base words,
	// including unroutable east channels, so HRunFree never needs the
	// scalar EdgeRoutable check.
	o.vw = g.VW()
	nw := (g.NumVertices() + 63) / 64
	o.vWords = make([]uint64, nw)
	o.vBase = make([]uint64, nw)
	o.vEpoch = make([]int, nw)
	o.eWords = make([]uint64, nw)
	o.eBase = make([]uint64, nw)
	o.eEpoch = make([]int, nw)
	o.sWords = make([]uint64, nw)
	o.sBase = make([]uint64, nw)
	o.sEpoch = make([]int, nw)
	for v := 0; v < g.NumVertices(); v++ {
		bit := uint64(1) << (uint(v) & 63)
		if o.vStamp[v] == defectEpoch {
			o.vBase[v>>6] |= bit
		}
		x, y := g.VertexXY(v)
		switch {
		case x+1 >= g.VW():
			o.eBase[v>>6] |= bit // no east channel at the row end
		case o.eStamp[2*v] == defectEpoch || !g.EdgeRoutable(v, g.VertexID(x+1, y)):
			o.eBase[v>>6] |= bit
		}
		switch {
		case y+1 >= g.VH():
			o.sBase[v>>6] |= bit // no south channel on the bottom row
		case o.eStamp[2*v+1] == defectEpoch || !g.EdgeRoutable(v, g.VertexID(x, y+1)):
			o.sBase[v>>6] |= bit
		}
	}
	return o
}

// setVBit mirrors an occupied vertex into the word-packed view.
func (o *Occupancy) setVBit(v int) {
	w := v >> 6
	if o.vEpoch[w] != o.epoch {
		o.vWords[w] = o.vBase[w]
		o.vEpoch[w] = o.epoch
	}
	o.vWords[w] |= 1 << (uint(v) & 63)
}

// setEBit mirrors an occupied east channel (of west vertex v) into the
// word-packed view.
func (o *Occupancy) setEBit(v int) {
	w := v >> 6
	if o.eEpoch[w] != o.epoch {
		o.eWords[w] = o.eBase[w]
		o.eEpoch[w] = o.epoch
	}
	o.eWords[w] |= 1 << (uint(v) & 63)
}

// setSBit mirrors an occupied south channel (of north vertex v) into
// the word-packed view.
func (o *Occupancy) setSBit(v int) {
	w := v >> 6
	if o.sEpoch[w] != o.epoch {
		o.sWords[w] = o.sBase[w]
		o.sEpoch[w] = o.epoch
	}
	o.sWords[w] |= 1 << (uint(v) & 63)
}

// vWordAt reads word w of the vertex mirror for the current epoch.
func (o *Occupancy) vWordAt(w int) uint64 {
	if o.vEpoch[w] == o.epoch {
		return o.vWords[w]
	}
	return o.vBase[w]
}

// eWordAt reads word w of the east-channel mirror for the current epoch.
func (o *Occupancy) eWordAt(w int) uint64 {
	if o.eEpoch[w] == o.epoch {
		return o.eWords[w]
	}
	return o.eBase[w]
}

// sWordAt reads word w of the south-channel mirror for the current epoch.
func (o *Occupancy) sWordAt(w int) uint64 {
	if o.sEpoch[w] == o.epoch {
		return o.sWords[w]
	}
	return o.sBase[w]
}

// onesRange returns a word with bits [lo, hi] set, 0 ≤ lo ≤ hi ≤ 63.
func onesRange(lo, hi int) uint64 {
	return (^uint64(0) >> uint(63-(hi-lo))) << uint(lo)
}

// HRunFree reports whether the horizontal corridor on vertex row y
// spanning columns [x0, x1] (in either order) is entirely free: every
// vertex of the run and every east channel between consecutive run
// vertices is unoccupied this cycle, non-defective, and routable. The
// probe scans the word-packed mirror, testing up to 64 lattice columns
// per instruction, and is exactly equivalent to the scalar
// VertexUsed/EdgeUsed/EdgeRoutable walk along the run.
func (o *Occupancy) HRunFree(y, x0, x1 int) bool {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	v0 := y*o.vw + x0
	v1 := y*o.vw + x1
	e1 := v1 - 1 // last east-channel id of the run; < v0 when the run is a point
	for w := v0 >> 6; w <= v1>>6; w++ {
		base := w << 6
		lo, hi := v0-base, v1-base
		if lo < 0 {
			lo = 0
		}
		if hi > 63 {
			hi = 63
		}
		bits := o.vWordAt(w) & onesRange(lo, hi)
		if ehi := e1 - base; ehi >= lo {
			if ehi > 63 {
				ehi = 63
			}
			bits |= o.eWordAt(w) & onesRange(lo, ehi)
		}
		if bits != 0 {
			return false
		}
	}
	return true
}

// Reset clears the per-cycle occupancy in O(1); defect stamps persist.
func (o *Occupancy) Reset() { o.epoch++ }

// VertexUsed reports whether vertex v is taken this cycle (or defective).
func (o *Occupancy) VertexUsed(v int) bool { return o.vStamp[v] >= o.epoch }

// EdgeUsed reports whether the channel between adjacent u,v is taken
// this cycle (or defective).
func (o *Occupancy) EdgeUsed(g *grid.Grid, u, v int) bool {
	return o.eStamp[g.EdgeID(u, v)] >= o.epoch
}

// EastBlocked reports whether the east channel of vertex v is impassable
// this cycle: occupied, defective, unroutable, or off-lattice (the
// row-end sentinel). One mirror load replaces the scalar
// InBounds/EdgeRoutable/EdgeUsed triple.
func (o *Occupancy) EastBlocked(v int) bool {
	return o.eWordAt(v>>6)>>(uint(v)&63)&1 != 0
}

// SouthBlocked is EastBlocked for the south channel of vertex v (the
// bottom-row sentinel covers the lattice edge).
func (o *Occupancy) SouthBlocked(v int) bool {
	return o.sWordAt(v>>6)>>(uint(v)&63)&1 != 0
}

// Conflicts reports whether p overlaps any braid already added this cycle
// or any defective lattice resource.
func (o *Occupancy) Conflicts(g *grid.Grid, p Path) bool {
	for i, v := range p {
		if o.vStamp[v] >= o.epoch {
			return true
		}
		if i > 0 && o.eStamp[g.EdgeID(p[i-1], v)] >= o.epoch {
			return true
		}
	}
	return false
}

// Add marks p's vertices and channels as taken this cycle. p must be a
// lattice walk on the occupancy's grid that does not cross a defect
// (Conflicts reports one): Add would overwrite its sentinel stamp, and
// the stamps would free it at the next Reset while the word mirror
// keeps it occupied.
func (o *Occupancy) Add(p Path) {
	for i, v := range p {
		if i > 0 {
			o.takeChannel(o.channel(p[i-1], v))
		}
		o.takeVertex(v)
	}
}

// TryAdd is Conflicts and Add in one walk over p: it marks p's vertices
// and channels as taken this cycle unless one of them already is (or is
// a defect), and reports whether it did. p must be a simple lattice walk
// on the occupancy's grid, as sched.CheckBraid proves. A false return
// leaves the vertices and channels before the conflict marked: the
// caller abandons the cycle, as the warm replay and Schedule.Validate do
// at the first conflict.
func (o *Occupancy) TryAdd(p Path) bool {
	for i, v := range p {
		if o.vStamp[v] >= o.epoch {
			return false
		}
		if i > 0 {
			e := o.channel(p[i-1], v)
			if o.eStamp[e] >= o.epoch {
				return false
			}
			o.takeChannel(e)
		}
		o.takeVertex(v)
	}
	return true
}

// channel returns grid.EdgeID of adjacent vertices u and v from their
// difference alone: 2·min for a horizontal channel, 2·min + 1 for a
// vertical one.
func (o *Occupancy) channel(u, v int) int {
	switch u - v {
	case 1:
		return 2 * v
	case -1:
		return 2 * u
	case o.vw:
		return 2*v + 1
	}
	return 2*u + 1
}

// takeVertex marks vertex v taken this cycle, in the stamps and the
// word mirror.
func (o *Occupancy) takeVertex(v int) {
	o.vStamp[v] = o.epoch
	o.setVBit(v)
}

// takeChannel marks channel e taken this cycle. The mirror keeps a
// channel under its west or north vertex's bit (EdgeID's min).
func (o *Occupancy) takeChannel(e int) {
	o.eStamp[e] = o.epoch
	if e&1 == 0 {
		o.setEBit(e >> 1)
	} else {
		o.setSBit(e >> 1)
	}
}

// Finder searches for a braiding path between the tiles of a two-qubit
// gate, avoiding the braids already placed this cycle. ok is false when
// no path exists under the current occupancy (the gate waits a cycle).
//
// buf is a caller-owned path buffer: implementations write the result
// into buf's storage (growing it only when capacity runs out) and return
// the resulting slice, so a steady-state caller that recycles the
// returned path as the next call's buf never allocates. Passing nil buf
// yields a freshly allocated path. The returned path aliases buf — a
// caller that retains it across Find calls must copy it first.
type Finder interface {
	Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (p Path, ok bool)
	Name() string
}

// SearchStats counts a finder's cumulative search effort since it was
// created — the router-level cost the paper's Fig. 8c runtime comparison
// is really measuring. Counting is plain field arithmetic on the finder,
// so it adds no allocation to the Find hot path.
type SearchStats struct {
	// Searches is the number of point-to-point searches started (a
	// single Find may start several: one per corner pair probed).
	Searches int64
	// Pops is the number of frontier nodes expanded across all searches
	// (A* open-heap pops, DFS stack pops).
	Pops int64
}

// StatsReporter is implemented by finders that track search effort; the
// pipeline surfaces the stats as route-stage trace counters and metrics.
type StatsReporter interface {
	Stats() SearchStats
}

// --- A* between the closest corner pair (HiLight) ---------------------------

// AStar is the paper's fast path-finder (FindMinManhattanDistPoint +
// FindValidBraidingPath): corner pairs are tried in ascending Manhattan
// distance and the first valid A* path wins. In the common case this is a
// single search between the closest corners; only under congestion do the
// remaining pairs get probed, which keeps it an order of magnitude
// cheaper than the exhaustive 16-pair shortest-path search (Full16) at
// near-identical latency (Fig. 8c). Pairs its free-component labels
// separate are skipped (freeLabels). Its heap keys vertex ids, so the
// lattice may have at most graph.HeapValueLimit vertices; a compile
// refuses larger grids before routing. The zero value is ready to use; a
// single instance reuses its internal buffers and is not safe for
// concurrent use.
type AStar struct {
	// Cong, when non-nil, is a per-vertex congestion field that breaks
	// ties between equal-length paths: the heap priority becomes
	// f<<10 | min(cong, 1023), so a lower f still strictly dominates and
	// path-length optimality is untouched — congestion only picks among
	// shortest paths. Nil (the default, and the paper-faithful sequential
	// configuration) leaves priorities as plain f values. Set by the
	// windowed-lookahead router.
	Cong []int32

	open   graph.MinHeap
	nodes  []searchNode
	epoch  int32
	stats  SearchStats
	labels freeLabels
}

// searchNode is one vertex's A* state, kept in one record so a relaxation
// touches one cache line. A record whose stamp is not the current
// search's epoch reads as unreached: g infinite, no predecessor, open.
type searchNode struct {
	stamp  int32
	g      int32
	from   int32
	closed bool
}

// unreached is the g-score of a vertex no search step has reached.
const unreached = 1 << 30

// Stats implements StatsReporter.
func (a *AStar) Stats() SearchStats { return a.stats }

// Name implements Finder.
func (a *AStar) Name() string { return "astar-closest" }

// Find implements Finder. It decodes each corner pair only when the
// previous one failed: most calls search the closest pair alone.
func (a *AStar) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	pairs := newCornerPairs(g, ctlTile, tgtTile)
	for k := range pairs.ord.pair {
		pr := pairs.at(k)
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) || a.labels.separates(occ, pr.u, pr.v) {
			continue
		}
		if p, ok := a.search(g, occ, pr.u, pr.v, buf); ok {
			return p, true
		}
		a.labels.relabel(g, occ)
	}
	return nil, false
}

// freeLabels is the complete finders' pruning state: a Components
// labeling of one occupancy, keyed on the occupancy and the epoch it was
// taken in. A complete search between two free corners fails iff the free
// lattice separates them, and within an epoch the lattice only loses
// vertices and channels, so a pair the labels separate would fail its
// search and is skipped. A pair the labels join fails only if a braid
// added since the labeling cut it; that failure relabels. A gate that
// cannot route thus costs one failed flood plus one word-parallel
// labeling instead of up to 16 floods, with unchanged results.
//
// The key needs both halves: the epoch alone would confuse distinct
// occupancies at the same epoch (CompactSchedule runs one finder against
// many fresh ones), and holding the pointer keeps a labeled occupancy
// alive, so its address is never reused by another.
type freeLabels struct {
	cc    Components
	occ   *Occupancy
	epoch int
}

// separates reports whether labels taken in occ's current epoch put u and
// v in different free components.
func (l *freeLabels) separates(occ *Occupancy, u, v int) bool {
	return l.occ == occ && l.epoch == occ.epoch && !l.cc.Connected(u, v)
}

// relabel labels g's free lattice under occ as it stands now. Call it
// after a search between two free corners fails.
func (l *freeLabels) relabel(g *grid.Grid, occ *Occupancy) {
	l.cc.Compute(g, occ)
	l.occ, l.epoch = occ, occ.epoch
}

type cornerPair struct {
	u, v, d int
}

// cornerPairs decodes the 16 corner pairs of two tiles in ascending
// Manhattan distance, stable within equal distances: pair k is at(k). The
// order and the distances come from pairOrders, chosen by the signs of
// the tile offset, so decoding a pair is a table load and three adds.
type cornerPairs struct {
	ord              *pairOrder
	ua, vb, vw, base int
}

// newCornerPairs prepares the corner pairs of tiles a and b.
func newCornerPairs(g *grid.Grid, a, b int) cornerPairs {
	ax, ay := g.TileXY(a)
	bx, by := g.TileXY(b)
	dx, dy := bx-ax, by-ay
	return cornerPairs{
		ord:  &pairOrders[3*(cmp.Compare(dy, 0)+1)+cmp.Compare(dx, 0)+1],
		ua:   g.VertexID(ax, ay),
		vb:   g.VertexID(bx, by),
		vw:   g.VW(),
		base: grid.CornerDist(dx, dy),
	}
}

// at returns the k-th closest corner pair.
func (c *cornerPairs) at(k int) cornerPair {
	p := c.ord.pair[k]
	i, j := p>>2, p&3
	return cornerPair{
		u: c.ua + int(i&1) + int(i>>1)*c.vw,
		v: c.vb + int(j&1) + int(j>>1)*c.vw,
		d: c.base + int(c.ord.off[k]),
	}
}

// cornerPairsByDistance writes the 16 corner pairs of tiles a and b into
// the caller's array, in cornerPairs order.
func cornerPairsByDistance(g *grid.Grid, a, b int, dst *[16]cornerPair) {
	pairs := newCornerPairs(g, a, b)
	for k := range dst {
		dst[k] = pairs.at(k)
	}
}

// pairOrder is the distance order of the 16 corner pairs for one sign
// class of the tile offset: pair[k] = 4i+j names corner i of the first
// tile and corner j of the second (Corners order: NW, NE, SW, SE), and
// off[k] is that pair's distance minus the closest corners' distance.
type pairOrder struct {
	pair [16]uint8
	off  [16]uint8
}

// pairOrders holds one pairOrder per sign class of the tile offset
// (dx, dy), indexed 3(sign(dy)+1) + sign(dx)+1. Corner i sits at
// (i&1, i>>1) within its tile, so a pair's x distance is
// |dx + shift| with shift = (j&1) − (i&1): (|dx| − 1) + (sign(dx)·shift + 1)
// when dx ≠ 0, and |shift| when dx = 0; likewise in y. A pair's distance
// is thus grid.CornerDist(dx, dy), the closest corners' distance, plus an
// offset fixed by the signs, and so is the stable order of the 16 pairs.
var pairOrders = func() (t [9]pairOrder) {
	axis := func(s, shift int) uint8 {
		if s == 0 {
			return uint8(shift * shift) // |shift|: shift is −1, 0 or 1
		}
		return uint8(s*shift + 1)
	}
	for sy := -1; sy <= 1; sy++ {
		for sx := -1; sx <= 1; sx++ {
			o := &t[3*(sy+1)+sx+1]
			for p := 0; p < 16; p++ {
				i, j := p>>2, p&3
				off := axis(sx, j&1-i&1) + axis(sy, j>>1-i>>1)
				// Insertion sort: stable, so equal offsets keep pair order.
				k := p
				for ; k > 0 && o.off[k-1] > off; k-- {
					o.pair[k], o.off[k] = o.pair[k-1], o.off[k-1]
				}
				o.pair[k], o.off[k] = uint8(p), off
			}
		}
	}
	return t
}()

// pri scales an f-score into a heap priority. With no congestion field
// it is the identity; with one, equal-f vertices order by congestion
// while any lower f still wins (strict dominance via the shift).
func (a *AStar) pri(f, v int) int {
	if a.Cong == nil {
		return f
	}
	c := a.Cong[v]
	if c > 1023 {
		c = 1023
	}
	return f<<10 | int(c)
}

// search runs A* from src to dst over unoccupied vertices and channels,
// writing the path into buf's storage.
//
// An expansion holds back the improved neighbor with the smallest key and
// expands it next without a push and a pop when it orders below the open
// set's minimum (or the set is empty): a heap would pop exactly that key
// next. Keys are distinct — a vertex is pushed again only with a strictly
// smaller g, so a strictly smaller priority — so the expansion order,
// every predecessor and the returned path are the plain heap search's,
// and so are Searches and Pops: the skipped pop counts as one.
func (a *AStar) search(g *grid.Grid, occ *Occupancy, src, dst int, buf Path) (Path, bool) {
	if occ.VertexUsed(src) || occ.VertexUsed(dst) {
		return nil, false
	}
	if src == dst {
		return append(buf[:0], src), true
	}
	if n := g.NumVertices(); len(a.nodes) < n {
		a.nodes = make([]searchNode, n)
		a.epoch = 0
	}
	if a.epoch == math.MaxInt32 {
		// Restart the stamps before they wrap, so no stale record can
		// carry the epoch of a later search.
		clear(a.nodes)
		a.epoch = 0
	}
	a.epoch++
	a.stats.Searches++
	a.open.Reset()
	a.nodes[src] = searchNode{stamp: a.epoch, from: -1}
	tx, ty := g.VertexXY(dst)
	vw := g.VW()
	// The source is the first pop: the open set holds nothing else.
	for cur := src; ; {
		a.stats.Pops++
		if cur == dst {
			return a.reconstruct(dst, buf), true
		}
		// A closed pop is a stale heap entry; a popped or held-back vertex
		// was stamped when its g improved, so its record is current.
		if n := &a.nodes[cur]; !n.closed {
			n.closed = true
			next := a.expand(g, occ, cur, int(n.g)+1, tx, ty, vw)
			if next < a.open.Min() {
				cur = next.Value()
				continue
			}
			if next != graph.NoHeapKey {
				a.open.Push(next)
			}
		}
		if a.open.Len() == 0 {
			return nil, false
		}
		cur = a.open.Pop().Value()
	}
}

// expand relaxes cur's neighbors at g-score tentative toward the target
// at (tx, ty). It pushes every improved neighbor but the one with the
// smallest key, which it returns (graph.NoHeapKey when none improved).
// Expansion probes the word-packed channel mirrors: a set bit bakes
// occupied, defective, unroutable, and off-lattice in one load, so no
// InBounds/EdgeRoutable/EdgeID work remains on the hot path. The N, E, S,
// W order matches VertexNeighbors, and each neighbor's heuristic follows
// from cur's coordinates.
func (a *AStar) expand(g *grid.Grid, occ *Occupancy, cur, tentative, tx, ty, vw int) graph.HeapKey {
	cx, cy := g.VertexXY(cur)
	held := graph.NoHeapKey
	if cur >= vw && !occ.SouthBlocked(cur-vw) {
		held = a.relax(occ, cur, cur-vw, tentative, tentative+abs(cx-tx)+abs(cy-1-ty), held)
	}
	if !occ.EastBlocked(cur) {
		held = a.relax(occ, cur, cur+1, tentative, tentative+abs(cx+1-tx)+abs(cy-ty), held)
	}
	if !occ.SouthBlocked(cur) {
		held = a.relax(occ, cur, cur+vw, tentative, tentative+abs(cx-tx)+abs(cy+1-ty), held)
	}
	if cur > 0 && !occ.EastBlocked(cur-1) {
		held = a.relax(occ, cur, cur-1, tentative, tentative+abs(cx-1-tx)+abs(cy-ty), held)
	}
	return held
}

// relax is one A* edge relaxation toward an in-bounds neighbor whose
// connecting channel is already known to be open, with f-score f. Of the
// improved neighbor's key and held it returns the smaller and pushes the
// other.
func (a *AStar) relax(occ *Occupancy, cur, nb, tentative, f int, held graph.HeapKey) graph.HeapKey {
	n := &a.nodes[nb]
	if n.stamp != a.epoch {
		*n = searchNode{stamp: a.epoch, g: unreached, from: -1}
	}
	if n.closed || tentative >= int(n.g) || occ.VertexUsed(nb) {
		return held
	}
	n.g, n.from = int32(tentative), int32(cur)
	k := graph.PackKey(nb, a.pri(f, nb))
	if k < held {
		k, held = held, k
	}
	if k != graph.NoHeapKey {
		a.open.Push(k)
	}
	return held
}

// reconstruct writes the src→dst path into buf by walking the predecessor
// chain backwards and reversing in place.
func (a *AStar) reconstruct(dst int, buf Path) Path {
	buf = buf[:0]
	for v := int32(dst); v != -1; v = a.nodes[v].from {
		buf = append(buf, int(v))
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// abs returns |x|.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// --- exhaustive 16-pair search (Fig. 9 "baseline") --------------------------

// Full16 searches every corner pair of the two tiles and returns the
// shortest valid path, reproducing the heavyweight routing the paper's
// scalability baseline uses. It shares the A* core, including its
// free-component labels, which skip the pairs no search could connect,
// and keeps one reusable best-path buffer, so improvements during the
// 16-pair scan never allocate.
type Full16 struct {
	astar   AStar
	scratch Path // per-pair search buffer
	best    Path // best path seen this Find
}

// Name implements Finder.
func (f *Full16) Name() string { return "full-16" }

// Stats implements StatsReporter: Full16 drives the shared A* core, so
// its effort is the underlying searcher's.
func (f *Full16) Stats() SearchStats { return f.astar.Stats() }

// Find implements Finder.
func (f *Full16) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	found := false
	for _, u := range g.Corners(ctlTile) {
		for _, v := range g.Corners(tgtTile) {
			if occ.VertexUsed(u) || occ.VertexUsed(v) || f.astar.labels.separates(occ, u, v) {
				continue
			}
			p, ok := f.astar.search(g, occ, u, v, f.scratch[:0])
			if !ok {
				f.astar.labels.relabel(g, occ)
				continue
			}
			f.scratch = p // keep grown capacity for the next pair
			if !found || p.Len() < f.best.Len() {
				f.best = append(f.best[:0], p...)
				found = true
			}
		}
	}
	if !found {
		return nil, false
	}
	return append(buf[:0], f.best...), true
}

// --- stack-based DFS (AutoBraid) ---------------------------------------------

// StackDFS is the AutoBraid-style stack-based path-finder: an iterative
// DFS from the closest corner pair that commits to the first path found.
// Neighbor expansion prefers steps that reduce the Manhattan distance to
// the target, so paths are goal-directed but may detour around congestion
// instead of globally minimizing length — which is what inflates the
// baseline's ResUtil in Table 1. The DFS is complete, so it prunes corner
// pairs with free-component labels exactly as AStar does.
type StackDFS struct {
	visited []bool
	stampV  []int
	epoch   int
	nbrBuf  []int
	frames  []dfsFrame
	stack   []int
	stats   SearchStats
	labels  freeLabels
	pairs   [16]cornerPair
}

// Stats implements StatsReporter.
func (s *StackDFS) Stats() SearchStats { return s.stats }

// dfsFrame is one partial-path node: backtracking restores state by
// walking parent indices.
type dfsFrame struct {
	vertex int
	parent int // index of parent frame, -1 at root
}

// Name implements Finder.
func (s *StackDFS) Name() string { return "stack-dfs" }

// Find implements Finder.
func (s *StackDFS) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	cornerPairsByDistance(g, ctlTile, tgtTile, &s.pairs)
	for _, pr := range &s.pairs {
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) || s.labels.separates(occ, pr.u, pr.v) {
			continue
		}
		if p, ok := s.dfs(g, occ, pr.u, pr.v, buf); ok {
			return p, true
		}
		s.labels.relabel(g, occ)
	}
	return nil, false
}

// visit reports whether v was already visited this epoch, initializing
// its state lazily.
func (s *StackDFS) visit(v int) bool {
	if s.stampV[v] != s.epoch {
		s.stampV[v] = s.epoch
		s.visited[v] = false
	}
	return s.visited[v]
}

// mark flags v as visited this epoch.
func (s *StackDFS) mark(v int) {
	s.stampV[v] = s.epoch
	s.visited[v] = true
}

// dfs runs one stack-based search between two free corners, writing the
// path into buf's storage.
func (s *StackDFS) dfs(g *grid.Grid, occ *Occupancy, src, dst int, buf Path) (Path, bool) {
	if src == dst {
		return append(buf[:0], src), true
	}
	n := g.NumVertices()
	if len(s.visited) < n {
		s.visited = make([]bool, n)
		s.stampV = make([]int, n)
	}
	s.stats.Searches++
	s.epoch++

	// Stack of partial paths; each frame stores the path so backtracking
	// restores state trivially. Frames expand goal-ward neighbors last so
	// they pop first.
	s.frames = append(s.frames[:0], dfsFrame{vertex: src, parent: -1})
	s.stack = append(s.stack[:0], 0)
	s.mark(src)
	for len(s.stack) > 0 {
		fi := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.stats.Pops++
		cur := s.frames[fi].vertex
		if cur == dst {
			// Reconstruct by walking parents.
			buf = buf[:0]
			for i := fi; i != -1; i = s.frames[i].parent {
				buf = append(buf, s.frames[i].vertex)
			}
			for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
				buf[i], buf[j] = buf[j], buf[i]
			}
			return buf, true
		}
		s.nbrBuf = g.VertexNeighbors(cur, s.nbrBuf[:0])
		// Two passes: push distance-increasing neighbors first, then
		// distance-decreasing ones, so the goal-ward step is explored
		// first (LIFO).
		for pass := 0; pass < 2; pass++ {
			for _, nb := range s.nbrBuf {
				goalward := g.VertexDist(nb, dst) < g.VertexDist(cur, dst)
				if (pass == 1) != goalward {
					continue
				}
				if s.visit(nb) || occ.VertexUsed(nb) || occ.EdgeUsed(g, cur, nb) {
					continue
				}
				s.mark(nb)
				s.frames = append(s.frames, dfsFrame{vertex: nb, parent: fi})
				s.stack = append(s.stack, len(s.frames)-1)
			}
		}
	}
	return nil, false
}
