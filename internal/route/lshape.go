package route

import "hilight/internal/grid"

// LShape is the cheapest possible braiding router: for each corner pair
// in ascending Manhattan distance it tries only the two axis-aligned
// two-bend paths (horizontal-then-vertical and vertical-then-horizontal)
// and takes the first that is free. No search state at all — but it
// defers gates whenever both bends are blocked, trading latency for
// runtime. It exists as the lower anchor of the path-finder ablation
// (L/Z-shaped braids are also the shape AutoBraid's figures draw).
type LShape struct{}

// Name implements Finder.
func (LShape) Name() string { return "l-shape" }

// Find implements Finder.
func (LShape) Find(g *grid.Grid, occ *Occupancy, ctlTile, tgtTile int, buf Path) (Path, bool) {
	var pairs [16]cornerPair
	cornerPairsByDistance(g, ctlTile, tgtTile, &pairs)
	for _, pr := range &pairs {
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) {
			continue
		}
		if pr.u == pr.v {
			return append(buf[:0], pr.u), true
		}
		if p, ok := lWalk(g, occ, pr.u, pr.v, true, buf); ok {
			return p, true
		}
		if p, ok := lWalk(g, occ, pr.u, pr.v, false, buf); ok {
			return p, true
		}
	}
	return nil, false
}

// lWalk builds the two-bend path from src to dst into buf's storage,
// moving horizontally first when hFirst is set. It fails on the first
// occupied vertex, occupied channel, or unroutable (factory-interior)
// channel.
func lWalk(g *grid.Grid, occ *Occupancy, src, dst int, hFirst bool, buf Path) (Path, bool) {
	sx, sy := g.VertexXY(src)
	dx, dy := g.VertexXY(dst)
	p := append(buf[:0], src)
	cur := src
	step := func(nx, ny int) bool {
		next := g.VertexID(nx, ny)
		if occ.VertexUsed(next) || !g.EdgeRoutable(cur, next) || occ.EdgeUsed(g, cur, next) {
			return false
		}
		p = append(p, next)
		cur = next
		return true
	}
	// Horizontal legs are probed word-wide: the run's feasibility
	// (vertices + east channels + routability) is one HRunFree call, and
	// the vertices are then appended unchecked. The leg's starting vertex
	// is always known-free (the caller checked the corner, or walkY just
	// stepped onto the pivot), so including it in the probe only
	// re-confirms a fact — accept/reject and the path bytes are identical
	// to the scalar step loop.
	walkX := func(y int) bool {
		if sx == dx {
			return true
		}
		lo, hi := sx, dx
		if lo > hi {
			lo, hi = hi, lo
		}
		if !occ.HRunFree(y, lo, hi) {
			return false
		}
		for x := sx; x != dx; {
			if dx > x {
				x++
			} else {
				x--
			}
			p = append(p, g.VertexID(x, y))
		}
		cur = g.VertexID(dx, y)
		return true
	}
	walkY := func(x int) bool {
		for y := sy; y != dy; {
			if dy > y {
				y++
			} else {
				y--
			}
			if !step(x, y) {
				return false
			}
		}
		return true
	}
	if hFirst {
		if !walkX(sy) {
			return nil, false
		}
		sx = dx
		if !walkY(dx) {
			return nil, false
		}
	} else {
		if !walkY(sx) {
			return nil, false
		}
		sy = dy
		if !walkX(dy) {
			return nil, false
		}
	}
	return p, true
}
