package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hilight/internal/circuit"
	"hilight/internal/graph"
	"hilight/internal/grid"
	"hilight/internal/obs"
	"hilight/internal/place"
	"hilight/internal/sched"
)

// State is the shared mutable state a Pipeline threads through its
// passes: the working circuit (rewritten by decompose-swaps and qco),
// the grid, the layout produced by place, the schedule produced by
// route, and the resolved components the passes consume. Passes
// communicate only through State, so a stage can be swapped, removed,
// or instrumented without touching its neighbors.
type State struct {
	// Input is the caller's circuit, untouched.
	Input *circuit.Circuit
	// Circuit is the working circuit: Input after SWAP decomposition
	// and (when enabled) the program-level optimization. The schedule
	// validates against this circuit, not Input.
	Circuit *circuit.Circuit
	Grid    *grid.Grid
	Layout  *grid.Layout
	// Schedule is produced by the route pass and refined by compact.
	Schedule *sched.Schedule
	// Result accumulates the pipeline outcome; finalize-metrics fills
	// the metric fields from Schedule.
	Result *Result

	cfg config      // resolved components (placement, ordering, finder, …)
	cur *StageTrace // trace entry of the running pass, for Count
}

// Count attaches a named counter to the currently running pass's trace
// entry — gate totals after a rewrite, cycles routed, braids hoisted.
// Outside a pass execution it is a no-op.
func (st *State) Count(name string, v int64) {
	if st.cur == nil {
		return
	}
	st.cur.Counters = append(st.cur.Counters, TraceCounter{Name: name, Value: v})
}

// Pass is one named stage of a compile pipeline. Run mutates the shared
// State and returns a typed error to abort the pipeline.
type Pass struct {
	Name string
	Run  func(*State) error
}

// TraceCounter is one named counter of a stage trace.
type TraceCounter struct {
	Name  string
	Value int64
}

// StageTrace records one executed pipeline pass: its name, wall-clock
// duration, and the counters the pass reported. The sum of stage
// durations accounts for (almost all of) Result.Runtime; the remainder
// is runner bookkeeping between passes.
type StageTrace struct {
	Stage    string
	Duration time.Duration
	Counters []TraceCounter
}

// Counter returns the named counter's value, if the stage recorded it.
func (t StageTrace) Counter(name string) (int64, bool) {
	for _, c := range t.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Result is the outcome of compiling a circuit onto a grid.
type Result struct {
	// Schedule is read-only: a warm recompile that replays every layer
	// of its parent shares them, with their braids and paths, with the
	// parent's schedule (see WarmStart), so writing one would rewrite
	// the other. Copy a layer before changing it, as CompactSchedule
	// does.
	Schedule *sched.Schedule
	Circuit  *circuit.Circuit // the routed circuit (post SWAP-decomposition/QCO)
	// Input is the caller's circuit exactly as handed to the pipeline,
	// before SWAP decomposition and QCO. Recompile edits apply to it.
	Input *circuit.Circuit
	Grid  *grid.Grid
	// BaseGrid is the grid before any per-compile defect map was applied
	// (Grid when no defects were requested). Recompile rebuilds the
	// degraded grid from it when a DefectMap delta arrives.
	BaseGrid *grid.Grid
	Latency  int
	PathLen  int           // total braiding path length (ResUtil numerator)
	Runtime  time.Duration // wall-clock pipeline time
	ResUtil  float64       // Eq. 1
	// Method names the pipeline spec that produced this result ("" for
	// an anonymous spec).
	Method string
	// Trace records every executed pass in order: stage name, duration,
	// and key counters (gates after rewrites, cycles routed, braids
	// compacted). Stage durations sum to ≈ Runtime.
	Trace []StageTrace
	// Degraded is set by the public Compile when the requested method
	// failed and a WithFallback method produced this result instead;
	// FallbackMethod then names the method that succeeded.
	Degraded       bool
	FallbackMethod string
	// WarmCycles is the number of schedule layers replayed verbatim from
	// a warm-start parent (0 for a cold compile). The first WarmCycles
	// layers of Schedule are byte-identical to the parent's.
	WarmCycles int
	// Delta, set by the public Recompile, reports what changed between
	// the parent schedule and this one (sched.Compare output).
	Delta *sched.Diff
}

// WarmStart seeds a pipeline with a previous compile: the parent's
// initial layout, its schedule's layers and the gate prefix its working
// circuit shares with this one. The route pass alone decides which
// layers still hold: the longest run, from the first layer, whose braids
// execute gates below the prefix, carry no inserted SWAP and pass
// sched.CheckBraid on the compile grid. It replays that run verbatim,
// checking every braid against the new circuit and layout, and resumes
// the Alg. 2 loop where the run ends. When the run is every parent
// layer, the new schedule shares them, with their braids and paths,
// instead of copying them; a shorter run is copied, so a schedule keeps
// no parent storage alive beyond its own layers. An empty run, or a
// braid that no longer replays, fails the pipeline with ErrWarmStart;
// callers fall back to a cold compile. Warm starts are incompatible
// with layout adjusters and the compact pass (both rewrite cycles the
// replay promised to keep).
type WarmStart struct {
	// Initial is the parent's initial layout; the warm pipeline adopts a
	// clone of it instead of running placement.
	Initial *grid.Layout
	// Layers are the parent schedule's layers, in order. They are read,
	// never mutated; when all of them replay, they become layers of the
	// new schedule as they are.
	Layers []sched.Layer
	// GatePrefix is the length of the gate prefix the parent's working
	// circuit shares with this compile's: a layer replays only if every
	// braid in it executes a gate below GatePrefix.
	GatePrefix int
	// Working, when non-nil, is the already-transformed working circuit
	// (post SWAP decomposition and QCO) the caller built to find
	// GatePrefix. The pipeline adopts it instead of re-running both
	// transforms, which would otherwise dominate a short warm recompile.
	Working *circuit.Circuit
}

// RunOptions carries the per-compile knobs that are not part of a
// method's identity: the seeded rng, overrides, cancellation, and the
// optional compact pass.
type RunOptions struct {
	// Rng drives the randomized components; nil means seed 1. Every
	// component of one pipeline shares this stream.
	Rng *rand.Rand
	// QCO, when non-nil, overrides the spec's QCO flag.
	QCO *bool
	// Observer receives per-cycle routing statistics.
	Observer Observer
	// Sink, when non-nil, receives the schedule incrementally as the
	// route pass seals each braiding cycle (see ScheduleSink). Sinks
	// observe the raw route output; the compact pass's rewrites are not
	// replayed.
	Sink ScheduleSink
	// Metrics, when non-nil, aggregates this compile into a process-wide
	// registry: every executed pass feeds its StageTrace under
	// pipeline/<pass>/... names (runs, errors, a seconds histogram, and
	// every trace counter), and the route pass additionally emits
	// route/... totals (braids routed, search pops). One registry may be
	// shared by any number of concurrent compiles.
	Metrics *obs.Registry
	// Ctx, when non-nil, is honored before every pass and at every
	// cycle boundary of the routing loop.
	Ctx context.Context
	// Compact inserts the compact pass between route and
	// finalize-metrics.
	Compact bool
	// Placement, when non-nil, replaces the spec's placement (test
	// hook, mirrored from the public options).
	Placement place.Method
	// Adjuster, when non-nil, replaces the spec's adjuster.
	Adjuster LayoutAdjuster
	// Warm, when non-nil, warm-starts the compile from a previous
	// result: placement is replaced by the parent layout and the route
	// pass replays the parent layers that still hold before routing the
	// remainder. See WarmStart for the replay and compatibility rules.
	Warm *WarmStart
}

// Pipeline is an executable sequence of named passes with its resolved
// components. Build one with NewPipeline; a Pipeline is single-shot —
// stateful components (seeded rngs, swap adjusters) make a second
// Execute diverge, so build a fresh Pipeline per compile.
type Pipeline struct {
	// Spec is the declarative description the pipeline was built from.
	Spec Spec
	// Passes run in order; the slice is the pipeline's full definition
	// and may be inspected or rewrapped before Execute.
	Passes []Pass

	cfg config
}

// NewPipeline resolves the spec's component names and assembles the
// pass sequence:
//
//	validate → decompose-swaps → [qco] → capacity → place → route →
//	[adjust] → [compact] → finalize-metrics
//
// qco runs only when enabled, adjust only when the spec names a layout
// adjuster, compact only when opt.Compact is set. Unknown component
// names fail here, before any compile work.
func NewPipeline(sp Spec, opt RunOptions) (*Pipeline, error) {
	rng := opt.Rng
	if rng == nil {
		rng = NewRand(1)
	}
	if opt.QCO != nil {
		sp.QCO = *opt.QCO
	}
	cfg, err := sp.components(rng)
	if err != nil {
		return nil, err
	}
	if opt.Placement != nil {
		cfg.Placement = opt.Placement
	}
	if opt.Adjuster != nil {
		cfg.Adjuster = opt.Adjuster
	}
	cfg.Observer = opt.Observer
	cfg.Sink = opt.Sink
	cfg.Metrics = opt.Metrics
	cfg.Ctx = opt.Ctx
	cfg.Warm = opt.Warm
	if cfg.Warm != nil {
		if cfg.Adjuster != nil {
			return nil, fmt.Errorf("core: %w: layout adjusters rewrite cycles the replayed prefix promised to keep", ErrWarmStart)
		}
		if opt.Compact {
			return nil, fmt.Errorf("core: %w: the compact pass hoists braids into replayed cycles", ErrWarmStart)
		}
		if cfg.Warm.Initial == nil {
			return nil, fmt.Errorf("core: %w: nil initial layout", ErrWarmStart)
		}
	}

	p := &Pipeline{Spec: sp, cfg: cfg}
	p.Passes = append(p.Passes, passValidate)
	if cfg.Warm != nil && cfg.Warm.Working != nil {
		p.Passes = append(p.Passes, passAdoptWorking)
	} else {
		p.Passes = append(p.Passes, passDecomposeSwaps)
		if cfg.QCO {
			p.Passes = append(p.Passes, passQCO)
		}
	}
	placePass := passPlace
	if cfg.Warm != nil {
		placePass = passPlaceWarm
	}
	routePass := passRoute
	if sp.Speculative && parallelCompatible(cfg) {
		routePass = passRouteParallel
	}
	p.Passes = append(p.Passes, passCapacity, placePass, routePass)
	if cfg.Adjuster != nil {
		p.Passes = append(p.Passes, passAdjust)
	}
	if opt.Compact {
		p.Passes = append(p.Passes, passCompact)
	}
	p.Passes = append(p.Passes, passFinalizeMetrics)
	return p, nil
}

// Execute runs the pipeline on (c, g). Each pass is timed into
// Result.Trace; the context (when set) is checked before every pass and
// inside the routing loop. The returned schedule always validates
// against the returned circuit.
func (p *Pipeline) Execute(c *circuit.Circuit, g *grid.Grid) (*Result, error) {
	st := &State{
		Input:  c,
		Grid:   g,
		Result: &Result{Grid: g, Method: p.Spec.Method, Input: c},
		cfg:    p.cfg,
	}
	start := time.Now()
	for _, pass := range p.Passes {
		if err := ctxErr(st.cfg.Ctx); err != nil {
			return nil, err
		}
		st.Result.Trace = append(st.Result.Trace, StageTrace{Stage: pass.Name})
		st.cur = &st.Result.Trace[len(st.Result.Trace)-1]
		t0 := time.Now()
		err := pass.Run(st)
		st.cur.Duration = time.Since(t0)
		if m := p.cfg.Metrics; m != nil {
			feedStage(m, st.cur, err)
		}
		st.cur = nil
		if err != nil {
			return nil, err
		}
	}
	st.Result.Runtime = time.Since(start)
	return st.Result, nil
}

// signedTraceCounters lists the trace counters that carry signed deltas
// (the qco pass reports cx-delta ≤ 0). They accumulate as gauges so the
// Prometheus exposition stays well-typed; everything else is a monotone
// counter.
var signedTraceCounters = map[string]bool{"cx-delta": true}

// feedStage mirrors one executed pass's StageTrace into the registry
// under pipeline/<stage>/... names: runs and errors counters, a
// wall-clock seconds histogram, and one counter or gauge per trace
// counter. For a single traced compile the registry deltas reconcile
// exactly with Result.Trace. The errors counter is registered even on
// clean runs so scrapes always see it (at zero) next to runs.
func feedStage(m *obs.Registry, tr *StageTrace, err error) {
	prefix := "pipeline/" + tr.Stage + "/"
	m.Counter(prefix + "runs").Inc()
	errs := m.Counter(prefix + "errors")
	if err != nil {
		errs.Inc()
	}
	m.Histogram(prefix+"seconds", obs.DurationBuckets).ObserveDuration(tr.Duration)
	for _, c := range tr.Counters {
		if c.Value < 0 || signedTraceCounters[c.Name] {
			m.Gauge(prefix + c.Name).Add(c.Value)
		} else {
			m.Counter(prefix + c.Name).Add(c.Value)
		}
	}
}

// Run builds the pipeline for sp and executes it on (c, g) — the
// one-call entry every consumer (public Compile, experiment harness,
// factory-placement search) drives compiles through.
func Run(c *circuit.Circuit, g *grid.Grid, sp Spec, opt RunOptions) (*Result, error) {
	p, err := NewPipeline(sp, opt)
	if err != nil {
		return nil, err
	}
	return p.Execute(c, g)
}

// The standard passes. Each is a plain value so pipeline definitions
// stay declarative and inspectable.
var (
	// passValidate rejects nil or structurally invalid inputs, and grids
	// past the router's search heap, before any rewriting happens.
	passValidate = Pass{Name: "validate", Run: func(st *State) error {
		if st.Input == nil {
			return fmt.Errorf("core: nil circuit")
		}
		if st.Grid == nil {
			return fmt.Errorf("core: nil grid")
		}
		if n := st.Grid.NumVertices(); n > graph.HeapValueLimit {
			return &ErrGridTooLarge{W: st.Grid.W, H: st.Grid.H, Vertices: n, Limit: graph.HeapValueLimit}
		}
		if err := st.Input.Validate(); err != nil {
			return fmt.Errorf("core: invalid circuit: %w", err)
		}
		st.Count("gates", int64(len(st.Input.Gates)))
		return nil
	}}

	// passDecomposeSwaps rewrites explicit SWAP gates into CX triples so
	// the router only ever sees braidable two-qubit gates. Under QCO a
	// SWAP-free input is handed on as it is: the qco pass always returns
	// a fresh circuit, so the working circuit is never the caller's.
	passDecomposeSwaps = Pass{Name: "decompose-swaps", Run: func(st *State) error {
		if st.cfg.QCO && !st.Input.HasSWAP() {
			st.Circuit = st.Input
		} else {
			st.Circuit = st.Input.DecomposeSWAPs()
		}
		st.Count("gates", int64(len(st.Circuit.Gates)))
		return nil
	}}

	// passQCO applies the program-level commuting-CX optimization (§3.3).
	passQCO = Pass{Name: "qco", Run: func(st *State) error {
		before := st.Circuit.CXCount()
		st.Circuit = OptimizeProgram(st.Circuit)
		st.Count("gates", int64(len(st.Circuit.Gates)))
		st.Count("cx-delta", int64(st.Circuit.CXCount()-before))
		return nil
	}}

	// passAdoptWorking installs the warm start's precomputed working
	// circuit in place of the decompose-swaps and qco passes: the caller
	// already ran both transforms to find the shared gate prefix, and they
	// are deterministic, so re-running them would only burn the time a
	// warm start exists to save.
	passAdoptWorking = Pass{Name: "adopt-working", Run: func(st *State) error {
		st.Circuit = st.cfg.Warm.Working
		st.Count("gates", int64(len(st.Circuit.Gates)))
		return nil
	}}

	// passCapacity fails fast when the grid has fewer usable tiles than
	// the circuit has program qubits.
	passCapacity = Pass{Name: "capacity", Run: func(st *State) error {
		have := st.Grid.Capacity()
		st.Count("capacity", int64(have))
		if have < st.Circuit.NumQubits {
			return &ErrInsufficientCapacity{
				Need: st.Circuit.NumQubits, Have: have, Grid: st.Grid.String(),
			}
		}
		return nil
	}}

	// passPlace produces the initial layout.
	passPlace = Pass{Name: "place", Run: func(st *State) error {
		st.Layout = st.cfg.Placement.Place(st.Circuit, st.Grid)
		st.Count("qubits", int64(st.Circuit.NumQubits))
		return nil
	}}

	// passPlaceWarm adopts the warm-start parent's initial layout instead
	// of running placement: the replayed layers braided from exactly this
	// layout, so re-placing would invalidate every replayed path. It is
	// the one check of that layout against the (possibly defect-degraded)
	// grid: a program qubit on a newly dead tile means the warm start is
	// off the table.
	passPlaceWarm = Pass{Name: "place-warm", Run: func(st *State) error {
		warm := st.cfg.Warm
		if len(warm.Initial.QubitTile) < st.Circuit.NumQubits {
			return fmt.Errorf("core: %w: parent layout places %d qubits, circuit has %d",
				ErrWarmStart, len(warm.Initial.QubitTile), st.Circuit.NumQubits)
		}
		if err := warm.Initial.Validate(st.Grid); err != nil {
			return fmt.Errorf("core: %w: parent layout invalid on current grid: %v", ErrWarmStart, err)
		}
		st.Layout = warm.Initial.Clone()
		st.Count("qubits", int64(st.Circuit.NumQubits))
		return nil
	}}

	// passRoute is the Alg. 2 main loop with the sequential step:
	// per-cycle ready-set collection, gate ordering, braiding path-finding
	// with the spec's finder, and (when an adjuster is configured)
	// in-flight SWAP insertion.
	passRoute = Pass{Name: "route", Run: func(st *State) error {
		return runRoute(st, &router{})
	}}

	// passRouteParallel is the same loop with the speculative step: per
	// cycle, the independent braids of the dependency layer are
	// speculated against the cycle's empty occupancy (with
	// free-component pruning and windowed-lookahead tie-breaking) and
	// committed in the deterministic ordered-ready sequence. It emits the
	// route counters plus the step's contention stats.
	passRouteParallel = Pass{Name: "route-parallel", Run: func(st *State) error {
		return runRoute(st, &router{speculator: &speculator{}})
	}}

	// passAdjust reconciles the layout adjustment that ran interleaved
	// with routing: the inserted-SWAP braids are already in the
	// schedule (Alg. 2 executes them between cycles), so this stage
	// accounts for their cost — the overhead Table 1 charges the
	// AutoBraid baseline for.
	passAdjust = Pass{Name: "adjust", Run: func(st *State) error {
		st.Count("swap-braids", int64(st.Schedule.InsertedBraids()))
		return nil
	}}

	// passCompact hoists braids into earlier cycles where dependencies
	// and occupancy allow (no-op on schedules with inserted SWAPs).
	passCompact = Pass{Name: "compact", Run: func(st *State) error {
		before := st.Schedule.Latency()
		compacted := CompactSchedule(st.Schedule, st.Circuit, st.cfg.Finder)
		st.Count("cycles-saved", int64(before-compacted.Latency()))
		st.Count("braids-hoisted", int64(hoistedBraids(st.Schedule, compacted)))
		st.Schedule = compacted
		return nil
	}}

	// passFinalizeMetrics sets Latency, PathLen and ResUtil (Eq. 1)
	// from the final schedule — the single place a Result gets these
	// metrics, whatever passes ran before it.
	passFinalizeMetrics = Pass{Name: "finalize-metrics", Run: func(st *State) error {
		res := st.Result
		res.Schedule = st.Schedule
		res.Circuit = st.Circuit
		res.Grid = st.Grid
		res.Latency = st.Schedule.Latency()
		res.PathLen = st.Schedule.TotalPathLength()
		res.ResUtil = st.Schedule.ResUtil()
		st.Count("latency", int64(res.Latency))
		st.Count("pathlen", int64(res.PathLen))
		return nil
	}}
)

// runRoute routes st.Circuit with rt and records the route counters:
// trace counters on the running pass and, with a registry attached,
// route/... totals. A warm start reports the parent layers it replayed
// (warm-prefix, and Result.WarmCycles). Search-effort stats (A* pops,
// DFS stack pops) are reported when the finder tracks them; the
// speculative step adds its contention stats.
func runRoute(st *State, rt *router) error {
	s, err := rt.route(st.Circuit, st.Grid, st.Layout, st.cfg)
	if err != nil {
		return err
	}
	st.Schedule = s
	if st.cfg.Warm != nil {
		st.Result.WarmCycles = rt.replayed
		st.Count("warm-prefix", int64(rt.replayed))
	}
	braids := int64(s.BraidCount())
	st.Count("cycles", int64(s.Latency()))
	st.Count("braids", braids)
	stats, tracked := rt.searchStats()
	if tracked {
		st.Count("search-pops", stats.Pops)
		st.Count("searches", stats.Searches)
	}
	par := rt.speculator
	if par != nil {
		st.Count("conflicts", par.stats.Conflicts)
		st.Count("retries", par.stats.Retries)
		st.Count("stall-cycles", par.stats.StallCycles)
	}
	if m := st.cfg.Metrics; m != nil {
		m.Counter("route/braids-routed").Add(braids)
		m.Counter("route/cycles").Add(int64(s.Latency()))
		m.Counter("route/search-pops").Add(stats.Pops)
		m.Counter("route/searches").Add(stats.Searches)
		if par != nil {
			m.Counter("route/parallel/conflicts").Add(par.stats.Conflicts)
			m.Counter("route/parallel/retries").Add(par.stats.Retries)
			m.Counter("route/parallel/stall-cycles").Add(par.stats.StallCycles)
		}
	}
	return nil
}

// hoistedBraids counts the gates whose cycle changed between the
// pre-compaction and post-compaction schedules.
func hoistedBraids(before, after *sched.Schedule) int {
	layerOf := map[int]int{}
	for li, l := range before.Layers {
		for _, b := range l {
			if b.Gate >= 0 {
				layerOf[b.Gate] = li
			}
		}
	}
	moved := 0
	for li, l := range after.Layers {
		for _, b := range l {
			if b.Gate >= 0 && layerOf[b.Gate] != li {
				moved++
			}
		}
	}
	return moved
}
