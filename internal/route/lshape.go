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
// moving horizontally first when hFirst is set. It probes both legs
// before it writes a vertex, so a blocked walk costs no buffer: it fails
// on any occupied vertex, occupied channel, or unroutable
// (factory-interior) channel.
func lWalk(g *grid.Grid, occ *Occupancy, src, dst int, hFirst bool, buf Path) (Path, bool) {
	sx, sy := g.VertexXY(src)
	dx, dy := g.VertexXY(dst)
	// The horizontal leg runs along row hy, the vertical one along
	// column vx; they meet at the bend (vx, hy).
	hy, vx := sy, dx
	if !hFirst {
		hy, vx = dy, sx
	}
	// The horizontal leg is probed word-wide: its vertices, east channels
	// and routability are one HRunFree call. Including the leg's first
	// vertex only re-confirms a fact — the caller checked the corner, or
	// the vertical leg ends on the bend.
	if sx != dx && !occ.HRunFree(hy, min(sx, dx), max(sx, dx)) {
		return nil, false
	}
	for y, step := sy, sign(dy-sy); y != dy; y += step {
		cur, next := g.VertexID(vx, y), g.VertexID(vx, y+step)
		if occ.VertexUsed(next) || !g.EdgeRoutable(cur, next) || occ.EdgeUsed(g, cur, next) {
			return nil, false
		}
	}
	p := append(buf[:0], src)
	if hFirst {
		p = appendRow(g, p, sy, sx, dx)
		return appendColumn(g, p, dx, sy, dy), true
	}
	p = appendColumn(g, p, sx, sy, dy)
	return appendRow(g, p, dy, sx, dx), true
}

// appendRow appends the vertices of row y after column x0, up to and
// including column x1.
func appendRow(g *grid.Grid, p Path, y, x0, x1 int) Path {
	for x, step := x0, sign(x1-x0); x != x1; {
		x += step
		p = append(p, g.VertexID(x, y))
	}
	return p
}

// appendColumn appends the vertices of column x after row y0, up to and
// including row y1.
func appendColumn(g *grid.Grid, p Path, x, y0, y1 int) Path {
	for y, step := y0, sign(y1-y0); y != y1; {
		y += step
		p = append(p, g.VertexID(x, y))
	}
	return p
}

// sign returns -1, 0 or 1 as v is negative, zero or positive.
func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}
