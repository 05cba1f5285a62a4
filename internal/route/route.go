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
// bit words, one bit per vertex and per channel with the permanent
// defects and closed channels in base words (every probe is one word
// load, and Reset restores only the words the cycle dirtied); A* keeps
// its open set in two bitsets, one per f-level, over vertex ids or, under
// a congestion field, over the vertices' congestion ranks; and
// Finder.Find writes the result into a caller-owned buffer so the
// router's inner loop never touches the heap. See the "Performance
// architecture" section of DESIGN.md for the ownership rules.
package route

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"

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
// braids of the current cycle, as bit words sized to one grid: bit v of
// the vertex words marks vertex v taken, and bit v of the east and south
// words the channel leaving v eastward or southward. Each word array has
// a base holding the permanent bits — dead vertices, and channels that
// are defective, unroutable (factory interiors, a dead endpoint) or off
// the lattice — so every probe, defects included, is one word load. An
// Occupancy is bound to the grid it was created for and must not be
// shared across grids.
//
// The words a cycle marks are listed as they are first dirtied, and
// Reset, which starts a new cycle, restores those words from their
// bases: it costs O(words the cycle touched), not O(grid). Reset also
// advances an epoch counter that names the cycle (freeLabels keys on
// it).
//
// Within an epoch an Occupancy only grows: Add and TryAdd, its only
// mutators, only mark vertices and channels taken (TryAdd can stop
// partway, leaving part of a path marked, which still only grows the
// set), and only Reset frees anything, by starting a new epoch. So two
// vertices the free lattice separates stay separated until the next
// Reset — the invariant that lets the complete finders reuse a
// free-component labeling across Find calls (see freeLabels).
type Occupancy struct {
	vw     int // vertex-row stride
	vWords []uint64
	eWords []uint64
	sWords []uint64
	vBase  []uint64
	eBase  []uint64
	sBase  []uint64

	dirty   []int32 // words this cycle marked, each listed once
	dirtied []bool  // dirtied[w]: word w is on the dirty list
	epoch   int
}

// NewOccupancy returns an occupancy set sized to g's routing lattice,
// with g's dead vertices and its closed and off-lattice channels set in
// the base words.
func NewOccupancy(g *grid.Grid) *Occupancy {
	n := g.NumVertices()
	nw := (n + 63) / 64
	words := make([]uint64, 6*nw)
	o := &Occupancy{
		vw:      g.VW(),
		vWords:  words[0*nw : 1*nw : 1*nw],
		eWords:  words[1*nw : 2*nw : 2*nw],
		sWords:  words[2*nw : 3*nw : 3*nw],
		vBase:   words[3*nw : 4*nw : 4*nw],
		eBase:   words[4*nw : 5*nw : 5*nw],
		sBase:   words[5*nw : 6*nw : 6*nw],
		dirty:   make([]int32, 0, nw),
		dirtied: make([]bool, nw),
		epoch:   1,
	}
	for v := 0; v < n; v++ {
		w, bit := v>>6, uint64(1)<<(uint(v)&63)
		if g.VertexDefective(v) {
			o.vBase[w] |= bit
		}
		x, y := g.VertexXY(v)
		if x+1 >= g.VW() || !g.EdgeRoutable(v, v+1) {
			o.eBase[w] |= bit // the row end has no east channel
		}
		if y+1 >= g.VH() || !g.EdgeRoutable(v, v+o.vw) {
			o.sBase[w] |= bit // the bottom row has no south channel
		}
	}
	copy(words, words[3*nw:])
	return o
}

// onesRange returns a word with bits [lo, hi] set, 0 ≤ lo ≤ hi ≤ 63.
func onesRange(lo, hi int) uint64 {
	return (^uint64(0) >> uint(63-(hi-lo))) << uint(lo)
}

// HRunFree reports whether the horizontal corridor on vertex row y
// spanning columns [x0, x1] (in either order) is entirely free: every
// vertex of the run and every east channel between consecutive run
// vertices is unoccupied this cycle, non-defective, and routable. The
// probe scans the vertex and east words, testing up to 64 lattice
// columns per instruction, and is exactly equivalent to the scalar
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
		bits := o.vWords[w] & onesRange(lo, hi)
		if ehi := e1 - base; ehi >= lo {
			if ehi > 63 {
				ehi = 63
			}
			bits |= o.eWords[w] & onesRange(lo, ehi)
		}
		if bits != 0 {
			return false
		}
	}
	return true
}

// Reset clears the per-cycle occupancy: it restores each word the cycle
// dirtied from its base, so the permanent bits persist, and starts a new
// epoch.
func (o *Occupancy) Reset() {
	for _, w := range o.dirty {
		o.vWords[w], o.eWords[w], o.sWords[w] = o.vBase[w], o.eBase[w], o.sBase[w]
		o.dirtied[w] = false
	}
	o.dirty = o.dirty[:0]
	o.epoch++
}

// VertexUsed reports whether vertex v is taken this cycle (or defective).
func (o *Occupancy) VertexUsed(v int) bool { return o.vWords[v>>6]>>(uint(v)&63)&1 != 0 }

// EdgeUsed reports whether the channel between adjacent u and v is taken
// this cycle, defective or unroutable. Its one caller, StackDFS, asks
// only about the routable channels VertexNeighbors lists, so for it the
// answer is "taken this cycle".
func (o *Occupancy) EdgeUsed(g *grid.Grid, u, v int) bool {
	return o.channelUsed(g.EdgeID(u, v))
}

// channelUsed reports bit e>>1 of the east words for an even channel id
// e (grid.EdgeID's horizontal channel), of the south words for an odd
// one.
func (o *Occupancy) channelUsed(e int) bool {
	words := o.eWords
	if e&1 != 0 {
		words = o.sWords
	}
	v := e >> 1
	return words[v>>6]>>(uint(v)&63)&1 != 0
}

// EastBlocked reports whether the east channel of vertex v is impassable
// this cycle: occupied, defective, unroutable, or off-lattice (the
// row-end bit). One word load replaces the scalar
// InBounds/EdgeRoutable/EdgeUsed triple.
func (o *Occupancy) EastBlocked(v int) bool {
	return o.eWords[v>>6]>>(uint(v)&63)&1 != 0
}

// SouthBlocked is EastBlocked for the south channel of vertex v (the
// bottom-row bit covers the lattice edge).
func (o *Occupancy) SouthBlocked(v int) bool {
	return o.sWords[v>>6]>>(uint(v)&63)&1 != 0
}

// Conflicts reports whether p overlaps any braid already added this
// cycle, a defective vertex or a closed channel. p must be a lattice walk
// on the occupancy's grid; its channels are read off the steps.
func (o *Occupancy) Conflicts(p Path) bool {
	for i, v := range p {
		if o.VertexUsed(v) || i > 0 && o.channelUsed(o.channel(p[i-1], v)) {
			return true
		}
	}
	return false
}

// Add marks p's vertices and channels as taken this cycle. p must be a
// lattice walk on the occupancy's grid; marking a vertex or channel that
// is already set, a defect among them, changes nothing.
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
// leaves the vertices and channels before the conflict marked, and their
// words listed for Reset: the caller abandons the cycle, as the warm
// replay and Schedule.Validate do at the first conflict.
func (o *Occupancy) TryAdd(p Path) bool {
	for i, v := range p {
		if o.VertexUsed(v) {
			return false
		}
		if i > 0 {
			e := o.channel(p[i-1], v)
			if o.channelUsed(e) {
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

// takeVertex marks vertex v taken this cycle, listing its word for Reset
// the first time the cycle marks it.
func (o *Occupancy) takeVertex(v int) {
	w := v >> 6
	if !o.dirtied[w] {
		o.dirtied[w] = true
		o.dirty = append(o.dirty, int32(w))
	}
	o.vWords[w] |= 1 << (uint(v) & 63)
}

// takeChannel marks channel e taken this cycle, under its west or north
// vertex's bit (EdgeID's min) in the east or south words. That vertex is
// an endpoint of the step that takes e, and Add and TryAdd take both
// endpoints of every channel they take, so takeVertex lists the word for
// Reset.
func (o *Occupancy) takeChannel(e int) {
	v := e >> 1
	w := v >> 6
	if e&1 == 0 {
		o.eWords[w] |= 1 << (uint(v) & 63)
	} else {
		o.sWords[w] |= 1 << (uint(v) & 63)
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
	// (A* open-set pops, DFS stack pops).
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
// separate are skipped (freeLabels).
//
// Every search expands vertices in the order of a heap keyed by f and
// then vertex id, or, under a congestion field (SetCong), by f, then
// min(cong, 1023), then id. Its open set is two bitsets, one per
// f-level, over the vertices' keys: the vertex id, or the vertex's rank
// in the field's order (search). The zero value is ready to use; a
// single instance reuses its internal buffers and is not safe for
// concurrent use.
type AStar struct {
	cong     []int32 // the attached congestion field, nil when none
	stale    bool    // keyOf and vertexOf do not yet rank cong's contents
	keyOf    []int32 // vertex → rank by (min(cong, 1023), id)
	vertexOf []int32 // rank → vertex

	levels [2]openLevel
	nodes  []searchNode
	epoch  int32
	stats  SearchStats
	labels freeLabels
}

// SetCong attaches cong, a per-vertex congestion field over the grid
// searched, or detaches the field when cong is nil. The field breaks
// ties between equal-length paths: a search under it pops the vertices
// of one f-level by (min(cong, 1023), id) instead of by id, as a heap
// keyed f<<10 | min(cong, 1023) would, so a lower f still strictly
// dominates and congestion only picks among shortest paths. The field
// must be non-negative; the speculative step's is, since its
// computeCongestion sums rectangle counts. Without a field (the default,
// and the paper-faithful sequential configuration) a level pops by id.
//
// SetCong only marks the rank stale, and the next search ranks every
// vertex, so a caller that rewrites its field in place attaches it
// again. Most of the speculative step's fields see no search at all.
func (a *AStar) SetCong(cong []int32) {
	a.cong, a.stale = cong, true
}

// rank orders the n vertices of the grid searched by (min(cong, 1023),
// id) with one stable counting sort, into keyOf and vertexOf.
func (a *AStar) rank(n int) {
	a.keyOf, a.vertexOf = sized(a.keyOf, n), sized(a.vertexOf, n)
	cong, keyOf, vertexOf := a.cong[:n], a.keyOf, a.vertexOf
	var next [1024]int32 // per congestion class: its count, then its next rank
	hi := int32(0)       // the highest class present
	for _, c := range cong {
		c = min(c, 1023)
		next[c]++
		hi = max(hi, c)
	}
	r := int32(0)
	for c, count := range next[:hi+1] {
		next[c] = r
		r += count
	}
	for v, c := range cong {
		c = min(c, 1023)
		keyOf[v], vertexOf[next[c]] = next[c], int32(v)
		next[c]++
	}
	a.stale = false
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

// search runs A* from src to dst over unoccupied vertices and channels,
// writing the path into buf's storage.
//
// Its open set is two openLevels: now holds the keys of the vertices at
// the f of the last pop, later those at f+2, and when now empties the
// two swap. *Why this pops in the heap's order* (see AStar): the
// Manhattan heuristic is consistent on unit channels and changes by
// exactly one per step, so a relaxation from a vertex popped at f lands
// at f (a step toward the target) or at f+2 (a step away), and no open
// vertex is ever below f or above f+2. A vertex is pushed again only
// with a strictly smaller g, hence a smaller f, so it sits at most once
// in each level. Within a level the heap orders vertices by id, or under
// a field by (min(cong, 1023), id), since its key f<<10 | min(cong, 1023)
// holds one f; that is the order of their keys, which pop takes. A
// vertex popped closed from the later level was superseded by a push at
// the lower f, as a heap's stale entry is, and counts one pop as that
// entry does, so Searches, Pops, every predecessor and every path are
// the heap search's.
func (a *AStar) search(g *grid.Grid, occ *Occupancy, src, dst int, buf Path) (Path, bool) {
	if occ.VertexUsed(src) || occ.VertexUsed(dst) {
		return nil, false
	}
	if src == dst {
		return append(buf[:0], src), true
	}
	if n := g.NumVertices(); len(a.nodes) < n {
		a.nodes = make([]searchNode, n)
		nw := (n + 63) >> 6
		words := make([]uint64, 2*nw)
		a.levels = [2]openLevel{{words: words[:nw:nw]}, {words: words[nw:]}}
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
	a.nodes[src] = searchNode{stamp: a.epoch, from: -1}
	var vertexOf []int32 // nil without a field: a key is its vertex
	if a.cong != nil {
		if a.stale {
			a.rank(g.NumVertices())
		}
		vertexOf = a.vertexOf
	}

	now, later := &a.levels[0], &a.levels[1]
	now.clear()
	later.clear()
	now.push(a.key(src))
	tx, ty := g.VertexXY(dst)
	vw := g.VW()
	for {
		if now.n == 0 {
			if later.n == 0 {
				return nil, false
			}
			now, later = later, now
		}
		cur := now.pop()
		if vertexOf != nil {
			cur = int(vertexOf[cur])
		}
		a.stats.Pops++
		if cur == dst {
			return a.reconstruct(dst, buf), true
		}
		n := &a.nodes[cur]
		if n.closed {
			continue
		}
		n.closed = true
		// The N, E, S, W order matches VertexNeighbors. A step is toward
		// the target iff it shrinks the coordinate gap it moves along.
		t := n.g + 1
		cx, cy := g.VertexXY(cur)
		if cur >= vw && !occ.SouthBlocked(cur-vw) {
			a.step(occ, cur, cur-vw, t, cy > ty, now, later)
		}
		if !occ.EastBlocked(cur) {
			a.step(occ, cur, cur+1, t, cx < tx, now, later)
		}
		if !occ.SouthBlocked(cur) {
			a.step(occ, cur, cur+vw, t, cy < ty, now, later)
		}
		if cur > 0 && !occ.EastBlocked(cur-1) {
			a.step(occ, cur, cur-1, t, cx > tx, now, later)
		}
	}
}

// key is vertex v's key in the open set: its rank under a congestion
// field, v itself without one.
func (a *AStar) key(v int) int {
	if a.cong != nil {
		return int(a.keyOf[v])
	}
	return v
}

// step is search's relaxation toward an in-bounds neighbor whose
// connecting channel is already known to be open: it records g-score t
// and pushes nb's key on now for a step toward the target, on later for
// a step away. The vertex bit is tested before the record: an occupied
// vertex is never relaxed, popped or on a predecessor chain, so its
// record is never read.
func (a *AStar) step(occ *Occupancy, cur, nb int, t int32, toward bool, now, later *openLevel) {
	if occ.VertexUsed(nb) {
		return
	}
	n := &a.nodes[nb]
	if n.stamp != a.epoch {
		*n = searchNode{stamp: a.epoch, g: unreached, from: -1}
	}
	if n.closed || t >= n.g {
		return
	}
	n.g, n.from = t, int32(cur)
	if toward {
		now.push(a.key(nb))
	} else {
		later.push(a.key(nb))
	}
}

// openLevel is one f-level of search's open set: a bitset over keys
// with its member count, and the range of words holding them.
type openLevel struct {
	words  []uint64
	lo, hi int // every member lies in words[lo..hi]
	n      int
}

// push adds key k, which is not a member.
func (l *openLevel) push(k int) {
	w := k >> 6
	if l.n == 0 {
		l.lo, l.hi = w, w
	} else {
		l.lo, l.hi = min(l.lo, w), max(l.hi, w)
	}
	l.words[w] |= 1 << (uint(k) & 63)
	l.n++
}

// pop removes and returns the lowest member; the level must not be empty.
func (l *openLevel) pop() int {
	for l.words[l.lo] == 0 {
		l.lo++
	}
	w := l.words[l.lo]
	l.words[l.lo] = w & (w - 1)
	l.n--
	return l.lo<<6 | bits.TrailingZeros64(w)
}

// clear empties the level; a search that reached its target leaves
// members behind.
func (l *openLevel) clear() {
	if l.n > 0 {
		clear(l.words[l.lo : l.hi+1])
		l.n = 0
	}
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
	stampV []int // stampV[v] == epoch: this search visited v
	epoch  int
	nbrBuf []int
	frames []dfsFrame
	stack  []int
	stats  SearchStats
	labels freeLabels
	pairs  [16]cornerPair
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

// dfs runs one stack-based search between two free corners, writing the
// path into buf's storage.
func (s *StackDFS) dfs(g *grid.Grid, occ *Occupancy, src, dst int, buf Path) (Path, bool) {
	if src == dst {
		return append(buf[:0], src), true
	}
	if n := g.NumVertices(); len(s.stampV) < n {
		s.stampV = make([]int, n)
	}
	s.stats.Searches++
	s.epoch++

	// Stack of partial paths; each frame stores the path so backtracking
	// restores state trivially. Frames expand goal-ward neighbors last so
	// they pop first.
	s.frames = append(s.frames[:0], dfsFrame{vertex: src, parent: -1})
	s.stack = append(s.stack[:0], 0)
	s.stampV[src] = s.epoch
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
				if s.stampV[nb] == s.epoch || occ.VertexUsed(nb) || occ.EdgeUsed(g, cur, nb) {
					continue
				}
				s.stampV[nb] = s.epoch
				s.frames = append(s.frames, dfsFrame{vertex: nb, parent: fi})
				s.stack = append(s.stack, len(s.frames)-1)
			}
		}
	}
	return nil, false
}
