// Package core implements the HiLight compiler as an explicit pass
// pipeline: a Pipeline of named Pass stages (validate → decompose-swaps
// → qco → capacity → place → route → adjust → compact →
// finalize-metrics) threading a shared State, with per-stage wall-clock
// and counter tracing in Result.Trace. Methods are declarative Specs in
// a static registry — component names resolved against registered
// placement/ordering/finder/adjuster factories — covering every variant
// the paper evaluates (hilight-map/-pg/-gm, the Fig. 9 baseline) plus
// the hooks the AutoBraid baseline plugs its SWAP-inserting layout
// adjustment into. This file holds the route passes' engine: the one
// Alg. 2 main loop and its sequential step, kept allocation-free in
// steady state.
package core

import (
	"context"
	"fmt"
	"math/bits"

	"hilight/internal/circuit"
	"hilight/internal/grid"
	"hilight/internal/obs"
	"hilight/internal/order"
	"hilight/internal/place"
	"hilight/internal/route"
	"hilight/internal/sched"
)

// DefaultOrderingThreshold is the ready-set size above which the ordering
// strategy is invoked; below it the discovery order is used directly. The
// paper adopts 4 from AutoBraid's analysis.
const DefaultOrderingThreshold = 4

// TileSwap asks the router to exchange the occupants of two adjacent
// tiles via an inserted three-braid SWAP.
type TileSwap struct {
	T1, T2 int
}

// RouterState is the read-only view a LayoutAdjuster gets each cycle.
// The struct and its Pending slices are owned by the router and reused
// between cycles; adjusters must not retain them past Propose.
type RouterState struct {
	Grid    *grid.Grid
	Layout  *grid.Layout // live layout; adjusters must not mutate it
	Circuit *circuit.Circuit
	Cycle   int
	// Pending lists, per qubit, the remaining two-qubit gate indices
	// (front first). Adjusters use it to find distant interacting pairs.
	Pending [][]int
}

// LayoutAdjuster lets a baseline (AutoBraid) propose SWAP insertions
// between cycles. Proposals for non-adjacent tiles are rejected by the
// router with an error; proposing nothing is always safe.
type LayoutAdjuster interface {
	Propose(st *RouterState) []TileSwap
}

// CycleStats summarizes one braiding cycle for an Observer: how much of
// the ready set was placed, how much was deferred by congestion, and the
// lattice resources the cycle consumed.
type CycleStats struct {
	Cycle      int
	Ready      int // executable two-qubit gates at cycle start
	Executed   int // braids placed for circuit gates
	Deferred   int // ready gates pushed to the next cycle
	SwapBraids int // in-flight inserted-SWAP braids this cycle
	PathLength int // routing vertices consumed this cycle
}

// Observer receives per-cycle statistics as the router runs. Observers
// must not retain or mutate router state; they are for congestion
// profiling and debugging.
type Observer interface {
	OnCycle(CycleStats)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(CycleStats)

// OnCycle implements Observer.
func (f ObserverFunc) OnCycle(s CycleStats) { f(s) }

// ScheduleSink receives the schedule incrementally while the router
// produces it: OnStart once, with the grid and the initial layout (a
// router-owned snapshot taken before any inserted SWAP mutates the live
// layout), then OnLayer for every sealed braiding cycle, in order. The
// layer and its braid paths are arena-backed router state, or on a warm
// replay the parent's own layer — a sink must consume or copy them
// before returning and must not retain or change them. A sink
// error aborts the compile; the streaming HTTP handler relies on this to
// stop routing when the client hangs up. Sinks observe the raw route
// output: passes that rewrite the schedule afterwards (compact) are not
// replayed into the sink.
type ScheduleSink interface {
	OnStart(g *grid.Grid, initial *grid.Layout) error
	OnLayer(cycle int, layer sched.Layer) error
}

// config is the resolved component bundle a pipeline threads into the
// router: the materialized form of a Spec, built only by
// Spec.components, which states the HiLight defaults (pattern+proximity
// placement, proposed ordering, closest-corner A*, threshold 4).
// External callers never build one — they go through Spec and the
// registries.
type config struct {
	Placement place.Method
	Ordering  order.Strategy
	Finder    route.Finder
	// OrderingThreshold invokes Ordering only when the ready set is
	// strictly larger.
	OrderingThreshold int
	// Adjuster, when non-nil, may insert SWAPs between cycles.
	Adjuster LayoutAdjuster
	// QCO enables the program-level optimization (§3.3): commuting-CX
	// reordering folded into gate-list generation.
	QCO bool
	// Observer, when non-nil, receives per-cycle routing statistics.
	Observer Observer
	// Sink, when non-nil, receives the schedule incrementally as the
	// router seals each cycle (see ScheduleSink).
	Sink ScheduleSink
	// FinderName is the registry name Finder was resolved from ("" when
	// the default applied). The pipeline uses it to decide whether the
	// speculative step — which substitutes the windowed finder — may
	// take over without changing which gates are routable.
	FinderName string
	// Metrics, when non-nil, aggregates pipeline and routing counters
	// across compiles (see RunOptions.Metrics).
	Metrics *obs.Registry
	// Ctx, when non-nil, is honored at every cycle boundary of the
	// routing loop: once done, Map returns an error wrapping ErrCanceled.
	Ctx context.Context
	// Warm, when non-nil, makes the router replay the run of Warm.Layers
	// that still holds before routing the rest with its step (see
	// WarmStart).
	Warm *WarmStart
}

// swapOp tracks an in-flight inserted SWAP: three braids between two
// adjacent tiles, the last of which exchanges the occupants.
type swapOp struct {
	t1, t2    int
	remaining int
}

// router holds every piece of scratch state the Alg. 2 main loop needs,
// so repeated route calls (batch compilation, benchmarks) run without
// heap allocations once the buffers have warmed up. The zero value is
// ready to use and routes with the sequential step; a router with a
// speculator routes with the speculative step instead (see
// router_parallel.go). A router is not safe for concurrent use, and the
// schedule returned by route is owned by the router: it is valid only
// until the next route call on the same router.
type router struct {
	// Per-call inputs, stored to keep the helper methods argument-free.
	c      *circuit.Circuit
	g      *grid.Grid
	layout *grid.Layout
	cfg    config

	// Per-grid state (reallocated when the grid changes). Keyed by grid
	// identity, not tile count: two same-sized grids can carry different
	// defect maps, and the occupancy bakes defects in at construction.
	occ       *route.Occupancy
	occGrid   *grid.Grid
	busyTile  []int // tile -> epoch stamp; busy iff == busyEpoch
	busyEpoch int

	// Per-circuit state. Bit q of readyCtl is set iff qubit q's front
	// gate has q as its control and is also its target's front gate:
	// the ready set, which commits keep up to date.
	ql       circuit.QubitLists
	cursor   []int
	heights  []int
	nextCX   []int
	readyCtl []uint64

	// Per-cycle scratch.
	ready    []order.Ready
	active   []swapOp
	layerBuf sched.Layer
	pathBuf  route.Path

	// Adjuster support (only populated when an adjuster is configured):
	// per qubit, its list from the cursor on.
	pending [][]int
	state   RouterState

	// Result storage. Braiding paths are appended into arena and braids
	// into braidArena, both sliced out and both reserved by init from
	// storeBounds, so a schedule costs one allocation per store the first
	// time (more only when a route outgrows a bound) and none once the
	// arenas have grown to steady state.
	sch        *sched.Schedule
	arena      []int
	braidArena []sched.Braid

	// speculator, when non-nil, selects the speculative step and holds its
	// finder and lookahead field.
	speculator *speculator

	// replayed is the number of warm-start layers the last route
	// replayed.
	replayed int
}

// init sizes the scratch for a (circuit, grid, layout) triple, and for
// the warm-start layers prefix the route replays, shared with the parent
// or copied (see replayPrefix), and resets all per-call state.
func (r *router) init(c *circuit.Circuit, g *grid.Grid, layout *grid.Layout, cfg config, prefix []sched.Layer, share bool) {
	r.c, r.g, r.layout, r.cfg = c, g, layout, cfg

	if r.occ == nil || r.occGrid != g {
		r.occ = route.NewOccupancy(g)
		r.occGrid = g
		r.busyTile = make([]int, g.Tiles())
		r.busyEpoch = 0
	}

	r.ql.Fill(c)
	r.cursor = resize(r.cursor, c.NumQubits)
	clear(r.cursor)
	bounds := r.computeHeights()
	if len(prefix) > 0 {
		bounds = r.withPrefix(bounds, prefix, share)
	}

	r.ready = r.ready[:0]
	r.active = r.active[:0]
	r.layerBuf = r.layerBuf[:0]

	if r.sch == nil {
		r.sch = &sched.Schedule{}
	}
	r.braidArena = resize(r.braidArena, bounds.braids)[:0]
	r.arena = resize(r.arena, bounds.verts)[:0]
	r.sch.Layers = resize(r.sch.Layers, bounds.layers)[:0]
	r.sch.Grid = g
	if r.sch.Initial == nil ||
		len(r.sch.Initial.QubitTile) != len(layout.QubitTile) ||
		len(r.sch.Initial.TileQubit) != len(layout.TileQubit) {
		r.sch.Initial = layout.Clone()
	} else {
		r.sch.Initial.CopyFrom(layout)
	}

	if cfg.Adjuster != nil {
		r.initPending()
	}
}

// route runs the Alg. 2 main loop: per cycle, collect the ready set,
// order it, and braid it with the router's step. A warm start first
// replays the run of parent layers that still holds (replayableRun),
// and fails with ErrWarmStart, before it sizes anything, when no layer
// does. The returned schedule is owned by the router and valid until
// the next route call.
func (r *router) route(c *circuit.Circuit, g *grid.Grid, layout *grid.Layout, cfg config) (*sched.Schedule, error) {
	var prefix []sched.Layer
	if cfg.Warm != nil {
		prefix = cfg.Warm.Layers[:replayableRun(cfg.Warm, g)]
		if len(prefix) == 0 {
			return nil, fmt.Errorf("core: %w: no parent layer replays", ErrWarmStart)
		}
	}
	share := cfg.Warm != nil && len(prefix) == len(cfg.Warm.Layers)
	r.init(c, g, layout, cfg, prefix, share)
	if cfg.Sink != nil {
		if err := cfg.Sink.OnStart(g, r.sch.Initial); err != nil {
			return nil, fmt.Errorf("core: schedule sink: %w", err)
		}
	}
	step := r.routeSequential
	if r.speculator != nil {
		r.initSpeculation()
		step = r.routeSpeculative
	}

	remaining := c.CXCount()

	if err := r.replayPrefix(prefix, share, &remaining); err != nil {
		return nil, err
	}
	r.replayed = len(prefix)
	cycle := r.replayed
	r.rebuildReady()
	guard := 0
	maxCycles := 16*(remaining+len(c.Gates)) + 4*g.Tiles() + 64

	for remaining > 0 || len(r.active) > 0 {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, fmt.Errorf("%w at cycle %d", err, cycle)
		}
		if guard++; guard > maxCycles {
			return nil, &ErrUnroutable{Gate: -1, Reason: fmt.Sprintf(
				"router exceeded %d cycles with %d gates left — scheduling livelock", maxCycles, remaining)}
		}
		r.resetCycle()

		// 1) Keep in-flight SWAP braids going; they occupy their tiles.
		for i := range r.active {
			op := &r.active[i]
			p, ok := cfg.Finder.Find(g, r.occ, op.t1, op.t2, r.pathBuf[:0])
			if !ok {
				if len(r.layerBuf) == 0 {
					// Nothing has braided yet this cycle, so the SWAP failed on
					// an empty lattice: it can never route, and would stay in
					// flight until the cycle guard trips.
					return nil, &ErrUnroutable{Gate: -1, CtlTile: op.t1, TgtTile: op.t2, Reason: fmt.Sprintf(
						"no braiding path for the SWAP of tiles %d-%d on an empty lattice; defects or reserved regions disconnect them", op.t1, op.t2)}
				}
				r.markBusy(op.t1, op.t2)
				continue // stalled by congestion; retry next cycle
			}
			r.pathBuf = p
			r.occ.Add(p)
			op.remaining--
			r.layerBuf = append(r.layerBuf, sched.Braid{
				Gate: -1, CtlTile: op.t1, TgtTile: op.t2, Path: r.storePath(p),
				SwapTiles: op.remaining == 0,
			})
			r.markBusy(op.t1, op.t2)
		}

		// 2) Gate ordering (Alg. 2 line 4): collect the ready set — both
		// operands have the gate at their front (the FrontList check).
		ready := r.collectReady()
		if len(ready) > cfg.OrderingThreshold {
			ready = cfg.Ordering.Order(ready, g)
			r.ready = ready[:0] // adopt whatever backing Order returned
		}

		// 3) Braiding path-finding per ready gate (Alg. 2 lines 7–11).
		remaining -= step(ready)

		if len(r.layerBuf) > 0 {
			if err := r.sealLayer(cycle, len(ready)); err != nil {
				return nil, err
			}
			cycle++
		}

		// 4) Apply completed SWAPs and drop them from the active list.
		kept := r.active[:0]
		for _, op := range r.active {
			if op.remaining == 0 {
				layout.Swap(op.t1, op.t2)
			} else {
				kept = append(kept, op)
			}
		}
		r.active = kept

		// 5) Let the adjuster (AutoBraid baseline) propose new SWAPs.
		if cfg.Adjuster != nil && remaining > 0 {
			r.state = RouterState{
				Grid: g, Layout: layout, Circuit: c, Cycle: cycle,
				Pending: r.pending,
			}
			for _, sw := range cfg.Adjuster.Propose(&r.state) {
				if g.Dist(sw.T1, sw.T2) != 1 {
					return nil, fmt.Errorf("core: adjuster proposed non-adjacent swap %d-%d", sw.T1, sw.T2)
				}
				if tileInFlight(r.active, sw.T1) || tileInFlight(r.active, sw.T2) {
					continue
				}
				r.active = append(r.active, swapOp{t1: sw.T1, t2: sw.T2, remaining: 3})
			}
		}

		// Stuck-progress detection: this sweep started from an empty
		// lattice (occupancy was reset, no in-flight SWAPs) and still
		// placed nothing, so no amount of waiting will ever route the
		// ready gates — the operand tiles are separated by defects or
		// reserved regions. Fail with a typed, actionable error instead
		// of spinning until the cycle guard trips.
		if len(r.layerBuf) == 0 && len(r.active) == 0 && remaining > 0 {
			if len(ready) > 0 {
				rd := ready[0]
				return nil, &ErrUnroutable{
					Gate: rd.Gate, CtlTile: rd.CtlTile, TgtTile: rd.TgtTile,
					Reason: fmt.Sprintf("no braiding path on an empty lattice (%d gates remaining); defects or reserved regions disconnect the tiles", remaining),
				}
			}
			return nil, &ErrUnroutable{Gate: -1, Reason: fmt.Sprintf(
				"%d gates remaining but none ready — dependency deadlock", remaining)}
		}
	}
	return r.sch, nil
}

// routeSequential is the paper's step (Alg. 2 lines 7–11): each ordered
// ready gate, in turn, path-finds with cfg.Finder against the live
// occupancy; a gate with no path is deferred to the next cycle. It
// returns the number of gates executed.
func (r *router) routeSequential(ready []order.Ready) int {
	executed := 0
	for _, rd := range ready {
		if r.isBusy(rd.CtlTile) || r.isBusy(rd.TgtTile) {
			continue
		}
		p, ok := r.cfg.Finder.Find(r.g, r.occ, rd.CtlTile, rd.TgtTile, r.pathBuf[:0])
		if !ok {
			continue // deferred to the next cycle
		}
		r.pathBuf = p
		r.commit(rd, p)
		executed++
	}
	return executed
}

// commit executes ready gate rd along path p in the cycle under
// construction (execute) and updates the ready set: the gate leaves it,
// and the new front gates of its operands are tested for it. No other
// gate's readiness can change, since only the operands' fronts moved.
func (r *router) commit(rd order.Ready, p route.Path) {
	gate := r.execute(rd, p)
	r.readyCtl[gate.Q0>>6] &^= 1 << (uint(gate.Q0) & 63)
	r.testReady(gate.Q0)
	r.testReady(gate.Q1)
}

// execute places gate rd along path p in the cycle under construction:
// occupancy and the stored braid, then take. It returns the gate.
func (r *router) execute(rd order.Ready, p route.Path) circuit.Gate {
	r.occ.Add(p)
	r.layerBuf = append(r.layerBuf, sched.Braid{
		Gate: rd.Gate, CtlTile: rd.CtlTile, TgtTile: rd.TgtTile, Path: r.storePath(p),
	})
	return r.take(rd)
}

// take books gate rd's execution this cycle once its path is in the
// occupancy: busy tiles, the operand cursors and (with an adjuster) the
// pending lists. It returns the gate.
func (r *router) take(rd order.Ready) circuit.Gate {
	r.markBusy(rd.CtlTile, rd.TgtTile)
	gate := r.c.Gates[rd.Gate]
	r.cursor[gate.Q0]++
	r.cursor[gate.Q1]++
	if r.cfg.Adjuster != nil {
		// The executed gate is at the front of both pending lists.
		r.pending[gate.Q0] = r.pending[gate.Q0][1:]
		r.pending[gate.Q1] = r.pending[gate.Q1][1:]
	}
	return gate
}

// searchStats reports the search effort of the step's finder; tracked
// is false when the sequential step's finder does not count it.
func (r *router) searchStats() (stats route.SearchStats, tracked bool) {
	if r.speculator != nil {
		return r.speculator.finder.Stats(), true
	}
	sr, ok := r.cfg.Finder.(route.StatsReporter)
	if !ok {
		return stats, false
	}
	return sr.Stats(), true
}

// resetCycle starts a braiding cycle on an empty lattice: no occupied
// vertex, no busy tile, no braid.
func (r *router) resetCycle() {
	r.occ.Reset()
	r.busyEpoch++
	r.layerBuf = r.layerBuf[:0]
}

// sealLayer closes the cycle under construction: it copies layerBuf into
// the braid arena and emits the copy. ready is the cycle's ready-set
// size.
//
// Braids live in a shared arena so a schedule with thousands of
// single-braid layers costs one allocation, not one per layer.
func (r *router) sealLayer(cycle, ready int) error {
	r.braidArena = arenaFor(r.braidArena, len(r.layerBuf))
	n := len(r.braidArena)
	r.braidArena = append(r.braidArena, r.layerBuf...)
	return r.emit(cycle, ready, sched.Layer(r.braidArena[n:len(r.braidArena):len(r.braidArena)]))
}

// emit appends a sealed layer to the schedule, reporting it to the
// observer first and handing it to the sink after.
func (r *router) emit(cycle, ready int, layer sched.Layer) error {
	if r.cfg.Observer != nil {
		stats := CycleStats{Cycle: cycle, Ready: ready}
		for _, b := range layer {
			stats.PathLength += len(b.Path)
			if b.Gate >= 0 {
				stats.Executed++
			} else {
				stats.SwapBraids++
			}
		}
		stats.Deferred = stats.Ready - stats.Executed
		r.cfg.Observer.OnCycle(stats)
	}
	r.sch.Layers = append(r.sch.Layers, layer)
	if r.cfg.Sink != nil {
		if err := r.cfg.Sink.OnLayer(cycle, layer); err != nil {
			return fmt.Errorf("core: schedule sink: %w", err)
		}
	}
	return nil
}

// replayableRun returns how many of the warm start's parent layers, from
// the first, may replay on g: the longest run of non-empty layers in
// which every braid executes a gate below the shared gate prefix,
// carries no inserted SWAP (SWAPs move the layout, invalidating later
// tiles) and passes sched.CheckBraid on g. A layer is atomic, since a
// half-replayed cycle would change the deferral pattern of everything
// after it. The rule reads no compile state, so the route applies it
// before it sizes its stores; replayBraid checks the rest as it replays.
func replayableRun(w *WarmStart, g *grid.Grid) int {
	for li, layer := range w.Layers {
		if len(layer) == 0 {
			return li
		}
		for _, b := range layer {
			if b.Gate < 0 || b.Gate >= w.GatePrefix || b.SwapTiles || sched.CheckBraid(g, b) != nil {
				return li
			}
		}
	}
	return len(w.Layers)
}

// replayPrefix re-emits the replayable parent layers verbatim. With
// replayableRun's rule, replayBraid's checks are the invariants
// sched.Validate would check, so a stale prefix can never smuggle an
// invalid cycle into the schedule. Any mismatch fails with ErrWarmStart
// and the caller falls back to a cold compile. Replay performs no path
// search: its cost is one walk per replayed path, and a copy of each
// path when it copies.
//
// When prefix is every parent layer (share), the schedule takes each
// one itself, capacity-clamped, so its braids and paths are shared with
// the parent (both read-only) and nothing is copied. A shorter run is
// copied into the router's stores instead: a shared layer keeps its
// parent's whole arenas alive, so sharing part of a parent would let a
// chain of edits that each cut their parent short keep every ancestor's
// storage alive. Either way a schedule's storage holds its own layers
// alone.
func (r *router) replayPrefix(prefix []sched.Layer, share bool, remaining *int) error {
	for li, layer := range prefix {
		r.resetCycle()
		for _, b := range layer {
			if err := r.replayBraid(b); err != nil {
				return fmt.Errorf("core: %w: cycle %d: %v", ErrWarmStart, li, err)
			}
			*remaining--
			if !share {
				b.Path = r.storePath(b.Path)
				r.layerBuf = append(r.layerBuf, b)
			}
		}
		var err error
		if share {
			err = r.emit(li, len(layer), layer[:len(layer):len(layer)])
		} else {
			err = r.sealLayer(li, len(layer))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayBraid verifies that one braid of the replayable run still holds
// on the live compile state and books it in the cycle: its two-qubit
// gate is next on both operands, which sit on the braid's tiles, neither
// tile braids already this cycle, and its path is clear of the cycle's
// earlier braids, which TryAdd tests as it adds the path. A failed test
// ends the warm attempt, so the occupancy TryAdd leaves behind is never
// read again. replayableRun has checked the braid itself against the
// grid (sched.CheckBraid).
func (r *router) replayBraid(b sched.Braid) error {
	if b.Gate >= len(r.c.Gates) {
		return fmt.Errorf("gate %d beyond circuit end", b.Gate)
	}
	gate := r.c.Gates[b.Gate]
	if !gate.TwoQubit() {
		return fmt.Errorf("gate %d is not two-qubit", b.Gate)
	}
	for _, q := range [2]int{gate.Q0, gate.Q1} {
		if r.front(q) != b.Gate {
			return fmt.Errorf("gate %d is not the next gate on qubit %d", b.Gate, q)
		}
	}
	if r.layout.QubitTile[gate.Q0] != b.CtlTile || r.layout.QubitTile[gate.Q1] != b.TgtTile {
		return fmt.Errorf("gate %d operands moved: layout has tiles %d,%d, braid has %d,%d",
			b.Gate, r.layout.QubitTile[gate.Q0], r.layout.QubitTile[gate.Q1], b.CtlTile, b.TgtTile)
	}
	if r.isBusy(b.CtlTile) || r.isBusy(b.TgtTile) {
		return fmt.Errorf("gate %d operand braids twice in one cycle", b.Gate)
	}
	if !r.occ.TryAdd(b.Path) {
		return fmt.Errorf("gate %d path conflicts within its cycle", b.Gate)
	}
	r.take(order.Ready{Gate: b.Gate, CtlTile: b.CtlTile, TgtTile: b.TgtTile})
	return nil
}

// ctxErr translates a done context into the typed cancellation error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w (%v)", ErrCanceled, err)
	}
	return nil
}

// markBusy stamps tiles as braiding this cycle.
func (r *router) markBusy(t1, t2 int) {
	r.busyTile[t1] = r.busyEpoch
	r.busyTile[t2] = r.busyEpoch
}

// isBusy reports whether tile t already braids this cycle.
func (r *router) isBusy(t int) bool { return r.busyTile[t] == r.busyEpoch }

// collectReady lists the ready set into the reused r.ready slice, by
// ascending control qubit: the order of a scan over every qubit. Tiles
// are read from the live layout, which inserted SWAPs move.
func (r *router) collectReady() []order.Ready {
	r.ready = r.ready[:0]
	for w, word := range r.readyCtl {
		for word != 0 {
			q := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			gi := r.front(q)
			gate := r.c.Gates[gi]
			r.ready = append(r.ready, order.Ready{
				Gate:    gi,
				CtlTile: r.layout.QubitTile[gate.Q0],
				TgtTile: r.layout.QubitTile[gate.Q1],
				Height:  r.heights[gi],
			})
		}
	}
	return r.ready
}

// front returns qubit q's front gate, -1 when q has none left.
func (r *router) front(q int) int {
	lst := r.ql.Lists[q]
	if r.cursor[q] >= len(lst) {
		return -1
	}
	return lst[r.cursor[q]]
}

// testReady adds qubit q's front gate to the ready set when it is also
// the front gate of its other operand.
func (r *router) testReady(q int) {
	gi := r.front(q)
	if gi < 0 {
		return
	}
	gate := r.c.Gates[gi]
	if r.front(gate.Q0) == gi && r.front(gate.Q1) == gi {
		r.readyCtl[gate.Q0>>6] |= 1 << (uint(gate.Q0) & 63)
	}
}

// rebuildReady recomputes the ready set from every qubit's front gate.
func (r *router) rebuildReady() {
	r.readyCtl = resize(r.readyCtl, (r.c.NumQubits+63)>>6)
	clear(r.readyCtl)
	for q := 0; q < r.c.NumQubits; q++ {
		r.testReady(q)
	}
}

// storePath copies p into the router's arena and returns the stored
// slice (capacity-clamped so later appends cannot clobber neighbors).
func (r *router) storePath(p route.Path) route.Path {
	r.arena = arenaFor(r.arena, len(p))
	n := len(r.arena)
	r.arena = append(r.arena, p...)
	return route.Path(r.arena[n:len(r.arena):len(r.arena)])
}

// storeBounds are the capacities init reserves for the result stores, so
// a route that stays within them sizes each store once.
type storeBounds struct {
	// braids is the two-qubit gate count, exact unless an adjuster
	// inserts SWAP braids.
	braids int
	// verts sums, over two-qubit gates, the fewest routing vertices each
	// gate's braid occupies under the initial layout (minPathLen); a braid
	// that detours outgrows it.
	verts int
	// layers is the dependency depth, the longest chain of two-qubit
	// gates: a lower bound on latency.
	layers int
}

// computeHeights computes, per two-qubit gate, the length of the longest
// chain of dependent two-qubit gates below it — the priority the
// CriticalPath ordering consumes. One backward sweep over the gate list,
// which also reads off the store bounds.
func (r *router) computeHeights() (b storeBounds) {
	c := r.c
	r.heights = resize(r.heights, len(c.Gates))
	clear(r.heights)
	// nextCX[q] is the height of the next two-qubit gate after the sweep
	// position on qubit q (-1 when none).
	r.nextCX = resize(r.nextCX, c.NumQubits)
	for q := range r.nextCX {
		r.nextCX[q] = -1
	}
	for gi := len(c.Gates) - 1; gi >= 0; gi-- {
		g := c.Gates[gi]
		if !g.TwoQubit() {
			continue
		}
		h := 0
		for _, q := range [2]int{g.Q0, g.Q1} {
			if r.nextCX[q] >= 0 && r.nextCX[q]+1 > h {
				h = r.nextCX[q] + 1
			}
		}
		r.heights[gi] = h
		r.nextCX[g.Q0] = h
		r.nextCX[g.Q1] = h
		b.braids++
		b.verts += r.minPathLen(g.Q0, g.Q1)
		b.layers = max(b.layers, h+1)
	}
	return b
}

// withPrefix adjusts cold-compile bounds for a warm start that replays
// prefix. A shared prefix keeps the parent's storage, so its gates leave
// the braid count and their fewest vertices leave the vertex count; a
// copied one stores its paths as they are, in place of their gates'
// fewest vertices. The schedule's layer list holds the prefix layers
// ahead of the remaining gates' layers, at most one per remaining gate.
func (r *router) withPrefix(b storeBounds, prefix []sched.Layer, share bool) storeBounds {
	replayed := 0
	for _, layer := range prefix {
		for _, br := range layer {
			// replayBraid rejects a gate past the circuit or not two-qubit.
			if br.Gate >= len(r.c.Gates) || !r.c.Gates[br.Gate].TwoQubit() {
				continue
			}
			g := r.c.Gates[br.Gate]
			replayed++
			b.verts -= r.minPathLen(g.Q0, g.Q1)
			if !share {
				b.verts += len(br.Path)
			}
		}
	}
	rest := max(b.braids-replayed, 0)
	if share {
		b.braids = rest
	}
	b.verts = max(b.verts, 0)
	b.layers = len(prefix) + min(b.layers, rest)
	return b
}

// minPathLen is the fewest routing vertices a braid between qubits q0
// and q1 occupies under the initial layout: the Manhattan distance
// between the closest corners of their tiles, + 1.
func (r *router) minPathLen(q0, q1 int) int {
	ax, ay := r.g.TileXY(r.layout.QubitTile[q0])
	bx, by := r.g.TileXY(r.layout.QubitTile[q1])
	return grid.CornerDist(bx-ax, by-ay) + 1
}

// initPending points the adjuster's per-qubit remaining two-qubit gate
// lists at the qubit lists from each cursor on. The router then keeps
// them there: when a gate executes, it drops off the front of both
// operands' lists.
func (r *router) initPending() {
	r.pending = resize(r.pending, r.c.NumQubits)
	for q := range r.pending {
		r.pending[q] = r.ql.Lists[q][r.cursor[q]:]
	}
}

func tileInFlight(active []swapOp, t int) bool {
	for _, op := range active {
		if op.t1 == t || op.t2 == t {
			return true
		}
	}
	return false
}

// resize returns s with length n, reusing its capacity when it
// suffices. Elements are not cleared: callers that need zeroes clear
// them. Growing copies the old elements over, so per-slot buffers (the
// speculative step's paths) keep their capacity across cycles.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// arenaFor returns arena with room for n more elements: arena itself,
// or, once it is full, a new empty array half as large again (n when
// larger). The elements already handed out stay valid on the old array,
// and the new one does not copy them. A new array that holds a whole
// route keeps a reused router at 0 allocs/op: a route whose store
// outgrows its bound by up to half fits in it next time.
func arenaFor[T any](arena []T, n int) []T {
	if len(arena)+n > cap(arena) {
		return make([]T, 0, max(cap(arena)*3/2, n))
	}
	return arena
}
