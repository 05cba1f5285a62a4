package core

import (
	"hilight/internal/order"
	"hilight/internal/route"
)

// This file holds the speculative step of the Alg. 2 loop (the
// route-parallel pass): the independent braids of each dependency layer
// are routed speculatively against the cycle's empty lattice and
// committed in a deterministic order. The step runs on the calling
// goroutine; the "parallel" in its names is the method presets' and
// stage's historical name.
//
// Each cycle runs three phases:
//
//   - Speculation: every ready gate, in ready order, path-finds against
//     the cycle's empty-lattice snapshot (the occupancy is not mutated
//     during the round) through one Windowed finder with a
//     free-component labeling and a windowed-lookahead congestion field.
//     On an empty lattice the corridor fast path answers almost every
//     query, so speculation is cheap.
//   - Commit: the walk of the *ordered ready sequence* commits each
//     speculative path that is disjoint from those committed before it.
//     Conflicting candidates fall through; candidates whose speculation
//     found no path are deferred to the next cycle (occupancy only grows
//     within a cycle, so failure against the cycle-start snapshot is
//     monotone).
//   - Finish: conflicting candidates re-route one by one against the
//     live occupancy, exactly like the sequential step but with the
//     component labeling refreshed after every commit — so a gate that
//     cannot route under this cycle's braids is deferred by two label
//     loads instead of a full-lattice search flood, and each gate costs
//     at most two path-finds per cycle.
//
// Determinism: the speculation snapshot is a pure function of the
// committed schedule prefix, the commit and finish orders are the
// ordered ready sequence, and each Find is a deterministic function of
// (snapshot, congestion field, gate). Starvation-freedom: the first
// candidate in commit order always commits (nothing precedes it to
// conflict with), and the finish phase is a linear sequential sweep.
//
// The step does not support layout adjusters (inserted SWAPs serialize
// the cycle anyway); NewPipeline keeps the sequential step for specs
// that configure one or that use a non-A*-family finder. Ready gates
// never share a tile (each qubit has one front gate and one tile), and
// without inserted SWAPs no tile is busy before a commit, so the step
// needs no busy-tile checks.

// parStats aggregates the speculative step's contention counters,
// surfaced as route-parallel trace counters and route/parallel/...
// metrics.
type parStats struct {
	// Conflicts counts speculative paths that lost the commit race to an
	// earlier gate in the deterministic order.
	Conflicts int64
	// Retries counts finish-phase re-routes: sequential path-finds for
	// candidates whose speculation conflicted.
	Retries int64
	// StallCycles counts cycles that needed a finish phase.
	StallCycles int64
}

// parallelCompatible reports whether the resolved components allow the
// speculative step to substitute its windowed finder without changing
// which gates are routable: no layout adjuster (inserted SWAPs serialize
// the cycle), and a finder from the complete A*-closest family (the
// windowed finder accepts and rejects exactly like it). Incompatible
// specs silently keep the sequential step.
func parallelCompatible(cfg config) bool {
	if cfg.Adjuster != nil {
		return false
	}
	switch cfg.FinderName {
	case "", "astar-closest":
		return true
	}
	return false
}

// speculator is the speculative step's state on top of the router's
// shared scratch: its finder, the free-component labeling and the
// windowed-lookahead field.
type speculator struct {
	finder route.Windowed
	comp   route.Components
	// emptyComp caches the empty-lattice labeling (a function of the
	// defect map alone), restored by copy at every cycle start instead of
	// re-sweeping.
	emptyComp route.Components

	// Per-cycle congestion field (windowed lookahead), its 2D
	// difference-array scratch, and the cached per-qubit tile coordinates
	// (the layout never moves without an adjuster).
	cong     []int32
	congDiff []int32
	qtx      []int32
	qty      []int32
	// Per qubit, the stamp rectangle of each gate in ql.Lists[q], packed
	// into one int64 (-1 when the gate stamps from its other operand):
	// q2rect[q2off[q]+i] belongs to the list's entry i, so the cursor
	// finds the lookahead window and the per-cycle sweep never loads gate
	// records at all.
	q2rect []int64
	q2off  []int32

	// Per-cycle speculation state. retry holds indices into the cycle's
	// ordered ready slice; specOK/specPath receive each candidate's
	// speculation result.
	retry    []int
	specOK   []bool
	specPath []route.Path

	stats parStats
}

// initSpeculation prepares the speculative step for the current route
// call: the finder, the empty-lattice labeling and the lookahead index.
func (r *router) initSpeculation() {
	s := r.speculator
	c, g := r.c, r.g
	s.finder = route.Windowed{Comp: &s.comp}

	// The empty-lattice labeling depends only on the defect map: compute
	// it once against the reset occupancy and restore it by copy each
	// cycle. Without an adjuster the layout is immutable, so per-qubit
	// tile coordinates for the congestion field are also cached here.
	r.occ.Reset()
	s.emptyComp.Compute(g, r.occ)
	s.qtx = resize(s.qtx, c.NumQubits)
	s.qty = resize(s.qty, c.NumQubits)
	for q := 0; q < c.NumQubits; q++ {
		x, y := g.TileXY(r.layout.QubitTile[q])
		s.qtx[q], s.qty[q] = int32(x), int32(y)
	}
	// Resolve each list entry's stamp rectangle once (operand tiles'
	// corner-vertex bounding box, normalized and widened to the far corner
	// column/row) — the layout never moves without an adjuster.
	s.q2rect = s.q2rect[:0]
	s.q2off = resize(s.q2off, c.NumQubits+1)
	for q := 0; q < c.NumQubits; q++ {
		s.q2off[q] = int32(len(s.q2rect))
		for _, gi := range r.ql.Lists[q] {
			gate := c.Gates[gi]
			rect := int64(-1)
			if gate.Q0 == q { // count each gate once, from its control side
				x0, y0 := s.qtx[gate.Q0], s.qty[gate.Q0]
				x1, y1 := s.qtx[gate.Q1], s.qty[gate.Q1]
				if x1 < x0 {
					x0, x1 = x1, x0
				}
				if y1 < y0 {
					y0, y1 = y1, y0
				}
				x1++ // tile corners span one extra vertex column/row
				y1++
				rect = int64(x0) | int64(y0)<<16 | int64(x1)<<32 | int64(y1)<<48
			}
			s.q2rect = append(s.q2rect, rect)
		}
	}
	s.q2off[c.NumQubits] = int32(len(s.q2rect))
}

// routeSpeculative is the speculative step: speculate every ordered
// ready gate, commit the disjoint paths in ready order, and finish the
// conflicting ones against the live occupancy. It returns the number of
// gates executed.
func (r *router) routeSpeculative(ready []order.Ready) int {
	s := r.speculator
	g := r.g
	f := &s.finder
	r.computeCongestion()
	f.Cong = s.cong
	s.specOK = resize(s.specOK, len(ready))
	s.specPath = resize(s.specPath, len(ready))

	// Speculation round: every ready gate path-finds against the cycle's
	// empty-lattice snapshot, whose component labeling only changes when
	// the defect map does.
	s.comp.CopyFrom(&s.emptyComp)
	for ci, rd := range ready {
		p, ok := f.Find(g, r.occ, rd.CtlTile, rd.TgtTile, s.specPath[ci][:0])
		s.specOK[ci] = ok
		if ok {
			s.specPath[ci] = p
		}
	}

	// Commit phase: walk the ordered ready sequence, committing every
	// speculative path that is disjoint from the braids committed before
	// it. Conflicting candidates fall through to the finish phase;
	// candidates whose speculation failed are deferred to the next cycle
	// (occupancy only grows within a cycle, so failure against the
	// cycle-start snapshot is final). dirty tracks whether the labeling
	// has drifted from the live occupancy.
	executed, dirty := 0, false
	s.retry = s.retry[:0]
	for ci, rd := range ready {
		if !s.specOK[ci] {
			continue // deferred to the next cycle
		}
		if r.occ.Conflicts(s.specPath[ci]) {
			s.retry = append(s.retry, ci)
			s.stats.Conflicts++
			continue // speculation lost the commit race; finish phase
		}
		r.commit(rd, s.specPath[ci])
		executed++
		dirty = true
	}

	// Finish phase: the conflicting candidates re-route sequentially
	// against the live occupancy — each gate is path-found at most twice
	// per cycle, and the component labeling is refreshed after every
	// commit so a deferral costs two label loads, never a full-lattice
	// search flood (on a congested lattice nearly every deferral would
	// otherwise flood; labeling is the cheaper side of that trade by an
	// order of magnitude).
	if len(s.retry) == 0 {
		return executed
	}
	s.stats.StallCycles++
	for _, ci := range s.retry {
		rd := ready[ci]
		if dirty {
			s.comp.Compute(g, r.occ)
			dirty = false
		}
		s.stats.Retries++
		p, ok := f.Find(g, r.occ, rd.CtlTile, rd.TgtTile, s.specPath[ci][:0])
		if !ok {
			continue // disconnected under this cycle's braids; next cycle
		}
		s.specPath[ci] = p
		r.commit(rd, p)
		executed++
		dirty = true
	}
	return executed
}

// lookahead is the depth of the windowed-lookahead field: how many
// pending two-qubit gates per qubit, beyond the imminent one, stamp
// computeCongestion's field. The depth only breaks ties among equally
// short paths, but the paths it picks shape later cycles and so the
// schedule; it is fixed here, not an option Fingerprint would have to
// digest.
const lookahead = 4

// computeCongestion builds the cycle's windowed-lookahead field: for
// each qubit, the next lookahead pending two-qubit gates beyond the
// imminent one each stamp the bounding box of their operand tiles'
// corner vertices, accumulated with a 2D difference array and one
// prefix-sum sweep. The result is a per-vertex count of how many
// upcoming braids want to cross that vertex's neighborhood — the
// tie-break field the Windowed finder consumes.
func (r *router) computeCongestion() {
	s := r.speculator
	vw, vh := r.g.VW(), r.g.VH()
	w := vw + 1 // difference-array stride: one sink column past the vertices
	s.congDiff = resize(s.congDiff, w*(vh+1))
	clear(s.congDiff)
	for q := 0; q < r.c.NumQubits; q++ {
		rects := s.q2rect[s.q2off[q]:s.q2off[q+1]]
		// Window: the imminent gate at the cursor routes this wavefront and
		// is not "pending"; the lookahead gates after it stamp the field.
		p := r.cursor[q]
		end := min(p+lookahead, len(rects)-1)
		for j := p + 1; j <= end; j++ {
			rc := rects[j]
			if rc < 0 {
				continue // counted from the gate's control side instead
			}
			x0, y0 := int(rc&0xffff), int(rc>>16&0xffff)
			x1, y1 := int(rc>>32&0xffff), int(rc>>48)
			s.congDiff[y0*w+x0]++
			s.congDiff[y0*w+x1+1]--
			s.congDiff[(y1+1)*w+x0]--
			s.congDiff[(y1+1)*w+x1+1]++
		}
	}
	s.cong = resize(s.cong, vw*vh)
	for y := 0; y < vh; y++ {
		row := s.congDiff[y*w:]
		var acc int32
		for x := 0; x < vw; x++ {
			acc += row[x]
			v := acc
			if y > 0 {
				v += s.congDiff[(y-1)*w+x]
			}
			row[x] = v
			s.cong[y*vw+x] = v
		}
	}
}
