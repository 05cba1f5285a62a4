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
// layer and its braid paths are arena-backed router state — a sink must
// consume or copy them before returning and must not retain them. A sink
// error aborts the compile; the streaming HTTP handler relies on this to
// stop routing when the client hangs up. Sinks observe the raw route
// output: passes that rewrite the schedule afterwards (compact) are not
// replayed into the sink.
type ScheduleSink interface {
	OnStart(g *grid.Grid, initial *grid.Layout) error
	OnLayer(cycle int, layer sched.Layer) error
}

// config is the resolved component bundle a pipeline threads into the
// router: the materialized form of a Spec. Zero-value fields get the
// HiLight defaults (pattern+proximity placement, proposed ordering,
// closest-corner A*, threshold 4). External callers never build one —
// they go through Spec and the registries.
type config struct {
	Placement place.Method
	Ordering  order.Strategy
	Finder    route.Finder
	// OrderingThreshold invokes Ordering only when the ready set is
	// strictly larger; ≤0 means DefaultOrderingThreshold.
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
	// Warm, when non-nil, makes the router replay Warm.Prefix verbatim
	// before routing the rest with its step (see WarmStart).
	Warm *WarmStart
}

func (cfg *config) fillDefaults() {
	if cfg.Placement == nil {
		cfg.Placement = place.HiLight{}
	}
	if cfg.Ordering == nil {
		cfg.Ordering = order.Proposed{}
	}
	if cfg.Finder == nil {
		cfg.Finder = &route.AStar{}
	}
	if cfg.OrderingThreshold <= 0 {
		cfg.OrderingThreshold = DefaultOrderingThreshold
	}
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

	// Per-circuit state.
	ql      circuit.QubitLists
	cursor  []int
	heights []int
	nextCX  []int

	// Per-cycle scratch.
	ready    []order.Ready
	active   []swapOp
	layerBuf sched.Layer
	pathBuf  route.Path

	// Adjuster support (only populated when an adjuster is configured).
	pending     [][]int
	pendingBack []int
	pendingOffs []int
	state       RouterState

	// Result storage. Braiding paths are appended into arena and braids
	// into braidArena, both sliced out, so a schedule costs O(log
	// total-path-length) allocations the first time and none once the
	// arenas have grown to steady state.
	sch        *sched.Schedule
	arena      []int
	braidArena []sched.Braid

	// speculator, when non-nil, selects the speculative step and holds its
	// finder and lookahead field.
	speculator *speculator
}

// init sizes the scratch for a (circuit, grid, layout) triple and resets
// all per-call state.
func (r *router) init(c *circuit.Circuit, g *grid.Grid, layout *grid.Layout, cfg config) {
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
	r.computeHeights()

	r.ready = r.ready[:0]
	r.active = r.active[:0]
	r.layerBuf = r.layerBuf[:0]
	r.arena = r.arena[:0]
	r.braidArena = r.braidArena[:0]

	if r.sch == nil {
		r.sch = &sched.Schedule{}
	}
	r.sch.Grid = g
	r.sch.Layers = r.sch.Layers[:0]
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
// order it, and braid it with the router's step. The returned schedule
// is owned by the router and valid until the next route call.
func (r *router) route(c *circuit.Circuit, g *grid.Grid, layout *grid.Layout, cfg config) (*sched.Schedule, error) {
	r.init(c, g, layout, cfg)
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

	// skip1Q advances each qubit's cursor past single-qubit gates: they
	// cost no braiding cycles.
	remaining := c.CXCount()
	for q := 0; q < c.NumQubits; q++ {
		r.skip1Q(q)
	}

	cycle := 0
	if cfg.Warm != nil {
		n, err := r.replayPrefix(cfg.Warm.Prefix, &remaining)
		if err != nil {
			return nil, err
		}
		cycle = n
	}
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
			r.occ.Add(g, p)
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
// construction: occupancy, the stored braid, busy tiles, the operand
// cursors and (with an adjuster) the pending lists.
func (r *router) commit(rd order.Ready, p route.Path) {
	r.occ.Add(r.g, p)
	r.layerBuf = append(r.layerBuf, sched.Braid{
		Gate: rd.Gate, CtlTile: rd.CtlTile, TgtTile: rd.TgtTile, Path: r.storePath(p),
	})
	r.markBusy(rd.CtlTile, rd.TgtTile)
	gate := r.c.Gates[rd.Gate]
	r.cursor[gate.Q0]++
	r.cursor[gate.Q1]++
	r.skip1Q(gate.Q0)
	r.skip1Q(gate.Q1)
	if r.cfg.Adjuster != nil {
		// The executed gate is at the front of both pending lists.
		r.pending[gate.Q0] = r.pending[gate.Q0][1:]
		r.pending[gate.Q1] = r.pending[gate.Q1][1:]
	}
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

// sealLayer closes the cycle under construction: it reports the cycle
// to the observer, appends a copy of layerBuf to the schedule and hands
// the sealed layer to the sink. ready is the cycle's ready-set size.
//
// Braids live in a shared arena so a schedule with thousands of
// single-braid layers (the session replay shape) costs O(log braids)
// allocations, not one per layer. An arena growth leaves earlier layers
// on the old backing array, which stays valid — layers never alias each
// other.
func (r *router) sealLayer(cycle, ready int) error {
	if r.cfg.Observer != nil {
		stats := CycleStats{Cycle: cycle, Ready: ready}
		for _, b := range r.layerBuf {
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
	n := len(r.braidArena)
	r.braidArena = append(r.braidArena, r.layerBuf...)
	layer := sched.Layer(r.braidArena[n:len(r.braidArena):len(r.braidArena)])
	r.sch.Layers = append(r.sch.Layers, layer)
	if r.cfg.Sink != nil {
		if err := r.cfg.Sink.OnLayer(cycle, layer); err != nil {
			return fmt.Errorf("core: schedule sink: %w", err)
		}
	}
	return nil
}

// replayPrefix re-emits the warm-start prefix layers verbatim, verifying
// every braid against the current circuit, layout, grid and defect map —
// the same invariants sched.Validate would check — so a stale prefix can
// never smuggle an invalid cycle into the schedule. Returns the number
// of cycles replayed; any mismatch fails with ErrWarmStart and the
// caller falls back to a cold compile. Replay performs no path search:
// its cost is linear in the prefix path length, which is what makes a
// recompile cheaper than a cold compile.
func (r *router) replayPrefix(prefix []sched.Layer, remaining *int) (int, error) {
	// Size the result storage for the whole prefix up front: replaying
	// thousands of layers through incremental append would spend more
	// time in slice growth than in verification.
	braids, verts := 0, 0
	for _, layer := range prefix {
		braids += len(layer)
		for _, b := range layer {
			verts += len(b.Path)
		}
	}
	if cap(r.arena)-len(r.arena) < verts {
		next := make([]int, len(r.arena), len(r.arena)+verts+verts/4)
		copy(next, r.arena)
		r.arena = next
	}
	if cap(r.braidArena)-len(r.braidArena) < braids {
		next := make([]sched.Braid, len(r.braidArena), len(r.braidArena)+braids+braids/4)
		copy(next, r.braidArena)
		r.braidArena = next
	}
	if cap(r.sch.Layers)-len(r.sch.Layers) < len(prefix) {
		next := make([]sched.Layer, len(r.sch.Layers), len(r.sch.Layers)+len(prefix)+len(prefix)/8+8)
		copy(next, r.sch.Layers)
		r.sch.Layers = next
	}
	for li, layer := range prefix {
		if len(layer) == 0 {
			return 0, fmt.Errorf("core: %w: empty layer %d", ErrWarmStart, li)
		}
		r.resetCycle()
		for _, b := range layer {
			if err := r.replayBraid(b); err != nil {
				return 0, fmt.Errorf("core: %w: cycle %d: %v", ErrWarmStart, li, err)
			}
			*remaining--
		}
		if err := r.sealLayer(li, len(layer)); err != nil {
			return 0, err
		}
	}
	return len(prefix), nil
}

// replayBraid verifies one prefix braid still holds on the current
// compile state and appends it to the layer under construction. The
// checks mirror sched.Validate: the gate exists, is two-qubit, is at
// the front of both operand gate lists, its operands sit on the braid's
// tiles, the tiles are usable, the path is a live simple walk anchored
// at the endpoint corners, and nothing in this cycle conflicts.
func (r *router) replayBraid(b sched.Braid) error {
	if b.Gate < 0 || b.SwapTiles {
		return fmt.Errorf("inserted-SWAP braid cannot be replayed")
	}
	if b.Gate >= len(r.c.Gates) {
		return fmt.Errorf("gate %d beyond circuit end", b.Gate)
	}
	gate := r.c.Gates[b.Gate]
	if !gate.TwoQubit() {
		return fmt.Errorf("gate %d is not two-qubit", b.Gate)
	}
	for _, q := range [2]int{gate.Q0, gate.Q1} {
		lst := r.ql.Lists[q]
		if r.cursor[q] >= len(lst) || lst[r.cursor[q]] != b.Gate {
			return fmt.Errorf("gate %d is not the next gate on qubit %d", b.Gate, q)
		}
	}
	if r.layout.QubitTile[gate.Q0] != b.CtlTile || r.layout.QubitTile[gate.Q1] != b.TgtTile {
		return fmt.Errorf("gate %d operands moved: layout has tiles %d,%d, braid has %d,%d",
			b.Gate, r.layout.QubitTile[gate.Q0], r.layout.QubitTile[gate.Q1], b.CtlTile, b.TgtTile)
	}
	if !r.g.Usable(b.CtlTile) || !r.g.Usable(b.TgtTile) {
		return fmt.Errorf("gate %d braids on an unusable tile (%d or %d)", b.Gate, b.CtlTile, b.TgtTile)
	}
	if err := b.Path.Validate(r.g); err != nil {
		return fmt.Errorf("gate %d path: %v", b.Gate, err)
	}
	if !tileCorner(r.g, b.CtlTile, b.Path[0]) || !tileCorner(r.g, b.TgtTile, b.Path[len(b.Path)-1]) {
		return fmt.Errorf("gate %d path not anchored at its tile corners", b.Gate)
	}
	if r.occ.Conflicts(r.g, b.Path) {
		return fmt.Errorf("gate %d path conflicts within its cycle", b.Gate)
	}
	r.commit(order.Ready{Gate: b.Gate, CtlTile: b.CtlTile, TgtTile: b.TgtTile}, b.Path)
	return nil
}

// tileCorner reports whether vertex v is one of tile t's four corners.
func tileCorner(g *grid.Grid, t, v int) bool {
	x, y := g.TileXY(t)
	return v == g.VertexID(x, y) || v == g.VertexID(x+1, y) ||
		v == g.VertexID(x, y+1) || v == g.VertexID(x+1, y+1)
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

// skip1Q advances qubit q's cursor past single-qubit gates.
func (r *router) skip1Q(q int) {
	lst := r.ql.Lists[q]
	for r.cursor[q] < len(lst) && !r.c.Gates[lst[r.cursor[q]]].TwoQubit() {
		r.cursor[q]++
	}
}

// markBusy stamps tiles as braiding this cycle.
func (r *router) markBusy(t1, t2 int) {
	r.busyTile[t1] = r.busyEpoch
	r.busyTile[t2] = r.busyEpoch
}

// isBusy reports whether tile t already braids this cycle.
func (r *router) isBusy(t int) bool { return r.busyTile[t] == r.busyEpoch }

// collectReady rebuilds the ready set into the reused r.ready slice.
func (r *router) collectReady() []order.Ready {
	r.ready = r.ready[:0]
	for q := 0; q < r.c.NumQubits; q++ {
		lst := r.ql.Lists[q]
		if r.cursor[q] >= len(lst) {
			continue
		}
		gi := lst[r.cursor[q]]
		gate := r.c.Gates[gi]
		if q != gate.Q0 {
			continue // count each gate once, from its control side
		}
		tq := gate.Q1
		if r.cursor[tq] < len(r.ql.Lists[tq]) && r.ql.Lists[tq][r.cursor[tq]] == gi {
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

// storePath copies p into the router's arena and returns the stored
// slice (capacity-clamped so later appends cannot clobber neighbors).
func (r *router) storePath(p route.Path) route.Path {
	n := len(r.arena)
	r.arena = append(r.arena, p...)
	return route.Path(r.arena[n:len(r.arena):len(r.arena)])
}

// computeHeights computes, per two-qubit gate, the length of the longest
// chain of dependent two-qubit gates below it — the priority the
// CriticalPath ordering consumes. One backward sweep over the gate list.
func (r *router) computeHeights() {
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
	}
}

// initPending builds the per-qubit remaining two-qubit gate lists for the
// adjuster, as views into one shared backing slice. The lists are then
// maintained incrementally: when a gate executes, the router pops it off
// the front of both operands' lists.
func (r *router) initPending() {
	c := r.c
	r.pending = resize(r.pending, c.NumQubits)
	r.pendingBack = r.pendingBack[:0]
	r.pendingOffs = resize(r.pendingOffs, c.NumQubits+1)
	for q := 0; q < c.NumQubits; q++ {
		r.pendingOffs[q] = len(r.pendingBack)
		for _, gi := range r.ql.Lists[q][r.cursor[q]:] {
			if c.Gates[gi].TwoQubit() {
				r.pendingBack = append(r.pendingBack, gi)
			}
		}
	}
	r.pendingOffs[c.NumQubits] = len(r.pendingBack)
	for q := 0; q < c.NumQubits; q++ {
		r.pending[q] = r.pendingBack[r.pendingOffs[q]:r.pendingOffs[q+1]]
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
