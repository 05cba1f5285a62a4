// Package hilight is the public API of the HiLight surface-code
// communication framework (Park, Kim & Kang, DAC 2024): qubit mapping for
// the double-defect surface code, where two-qubit gates execute as
// braiding paths on a tile grid and latency is the number of cycles of
// non-intersecting braids.
//
// The typical flow is three calls:
//
//	c := hilight.QFT(16)                         // or ParseQASM / NewCircuit
//	g := hilight.RectGrid(c.NumQubits)           // M×(M−1) hardware grid
//	res, err := hilight.Compile(c, g)            // place, order, braid
//
// Compile defaults to the paper's full "hilight" configuration
// (pattern-matching + qubit-proximity placement, ASAP gate ordering,
// closest-corner A* braiding). Options select every other configuration
// the paper evaluates, including the AutoBraid baselines.
package hilight

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	_ "hilight/internal/autobraid" // registers the autobraid-sp/-full method specs
	"hilight/internal/bench"
	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/faultinject"
	"hilight/internal/grid"
	"hilight/internal/hwopt"
	"hilight/internal/obs"
	"hilight/internal/place"
	"hilight/internal/qasm"
	"hilight/internal/qco"
	"hilight/internal/sched"
	"hilight/internal/sim"
)

// Core types, re-exported so downstream code never imports internal
// packages.
type (
	// Circuit is an ordered gate list over program qubits.
	Circuit = circuit.Circuit
	// Gate is a single operation on one or two program qubits.
	Gate = circuit.Gate
	// Kind enumerates gate kinds (H, CX, RZ, ...).
	Kind = circuit.Kind
	// Grid is the double-defect surface-code tile grid.
	Grid = grid.Grid
	// Layout maps program qubits to grid tiles.
	Layout = grid.Layout
	// Schedule is the braiding schedule produced by Compile.
	Schedule = sched.Schedule
	// Layer is one braiding cycle of a Schedule: the braids that execute
	// simultaneously.
	Layer = sched.Layer
	// Braid is one braiding operation of a Layer: a gate (or inserted
	// SWAP) realized as a routing path between two tiles.
	Braid = sched.Braid
	// Result carries the schedule and its latency/runtime/ResUtil metrics,
	// plus Degraded/FallbackMethod when a WithFallback method produced it.
	// Result.Trace records the compile's per-stage timing and counters
	// (see StageTrace).
	Result = core.Result
	// StageTrace is one entry of Result.Trace: a compiler pass's name,
	// wall-clock duration, and key counters (gates after rewrites, cycles
	// routed, braids compacted). Stage durations sum to ≈ Result.Runtime.
	StageTrace = core.StageTrace
	// TraceCounter is one named counter of a StageTrace.
	TraceCounter = core.TraceCounter
	// DefectMap lists a grid's fabrication defects: dead tiles, dead
	// routing vertices, and broken routing channels.
	DefectMap = grid.DefectMap
)

// Error taxonomy. ErrUnroutable, ErrInsufficientCapacity and
// ErrGridTooLarge are struct types retrieved with errors.As; ErrCanceled,
// ErrNilCircuit and ErrNilGrid are sentinels matched with errors.Is.
type (
	// ErrUnroutable means the router proved a gate cannot be braided:
	// defects or reserved regions disconnect its operand tiles, so the
	// compile failed fast instead of spinning.
	ErrUnroutable = core.ErrUnroutable
	// ErrInsufficientCapacity means the grid has fewer usable tiles than
	// the circuit has program qubits.
	ErrInsufficientCapacity = core.ErrInsufficientCapacity
	// ErrGridTooLarge means the grid has more routing vertices than the
	// router's search heap holds (2^26): a square grid of more than
	// 8,191×8,191 tiles.
	ErrGridTooLarge = core.ErrGridTooLarge
)

var (
	// ErrCanceled matches any compile abandoned because its context was
	// canceled or its WithTimeout deadline fired.
	ErrCanceled = core.ErrCanceled
	// ErrNilCircuit is returned by Compile for a nil circuit.
	ErrNilCircuit = errors.New("hilight: nil circuit")
	// ErrNilGrid is returned by Compile for a nil grid.
	ErrNilGrid = errors.New("hilight: nil grid")
)

// Common gate kinds.
const (
	H       = circuit.H
	X       = circuit.X
	Y       = circuit.Y
	Z       = circuit.Z
	S       = circuit.S
	T       = circuit.T
	RX      = circuit.RX
	RY      = circuit.RY
	RZ      = circuit.RZ
	CX      = circuit.CX
	CZ      = circuit.CZ
	SWAP    = circuit.SWAP
	Measure = circuit.Measure
)

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// ParseQASM parses OpenQASM 2.0 source into a circuit.
func ParseQASM(name, src string) (*Circuit, error) { return qasm.Parse(name, src) }

// ParseQASMFile parses an OpenQASM 2.0 file, resolving non-library
// `include` statements relative to the file's directory.
func ParseQASMFile(path string) (*Circuit, error) { return qasm.ParseFile(path) }

// WriteQASM renders a circuit as OpenQASM 2.0.
func WriteQASM(w io.Writer, c *Circuit) error { return qasm.Write(w, c) }

// FormatQASM returns a circuit's OpenQASM 2.0 source.
func FormatQASM(c *Circuit) string { return qasm.Format(c) }

// NewGrid returns an explicit w×h tile grid. Most callers want SquareGrid
// or RectGrid, which size the grid from a qubit count; NewGrid exists for
// shapes those don't produce — e.g. a grid one size larger than RectGrid
// to leave slack for fabrication defects (see WithDefects).
func NewGrid(w, h int) *Grid { return grid.New(w, h) }

// SquareGrid returns the M×M grid for n qubits, M = ceil(sqrt(n)).
func SquareGrid(n int) *Grid { return grid.Square(n) }

// RectGrid returns the hardware-optimized M×(M−1) grid (M×M when the
// rectangle cannot hold n qubits).
func RectGrid(n int) *Grid { return grid.Rect(n) }

// GridWithFactory returns a grid for n qubits with a fw×fh magic-state
// factory reserved in one corner (§3.4).
func GridWithFactory(n, fw, fh int, rect bool) (*Grid, error) {
	return hwopt.GridWithFactory(n, fw, fh, rect)
}

// ResUtil computes the Eq. 1 resource-utilization metric of a schedule.
func ResUtil(s *Schedule) float64 { return s.ResUtil() }

// OptimizeProgram applies the program-level commuting-CX reordering
// (§3.3) and returns the rewritten, semantically-equal circuit.
func OptimizeProgram(c *Circuit) *Circuit { return qco.Optimize(c) }

// EquivalentCircuits reports whether two circuits implement the same
// operator (statevector oracle; ≤ 20 qubits).
func EquivalentCircuits(a, b *Circuit, tol float64) (bool, error) {
	return sim.Equivalent(a, b, tol)
}

// options collects Compile configuration.
type options struct {
	method    string
	seed      int64
	qco       *bool
	observer  core.Observer
	sink      core.ScheduleSink
	metrics   *obs.Registry
	events    obs.EventObserver
	jobDone   func(job int, r BatchResult)
	compact   bool
	defects   *DefectMap
	ctx       context.Context
	timeout   time.Duration
	fallback  []string
	placement place.Method // test hook: overrides the method's placement
}

// Option configures Compile.
type Option func(*options)

// newOptions applies opts over the defaults: method "hilight", seed 1.
func newOptions(opts []Option) options {
	o := options{method: "hilight", seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithMethod selects a named configuration. See Methods for the list.
func WithMethod(name string) Option { return func(o *options) { o.method = name } }

// WithSeed seeds the randomized components (pattern-matched random
// layouts, baseline partitioning). The default seed is 1.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithQCO overrides whether the program-level optimization runs,
// independent of the method preset.
func WithQCO(enabled bool) Option {
	return func(o *options) { o.qco = &enabled }
}

// CycleStats summarizes one braiding cycle for WithObserver callbacks.
type CycleStats = core.CycleStats

// WithObserver registers a per-cycle callback for congestion profiling:
// it receives, for every braiding cycle, the ready-set size, how many
// gates were placed or deferred, and the lattice resources consumed.
func WithObserver(fn func(CycleStats)) Option {
	return func(o *options) { o.observer = core.ObserverFunc(fn) }
}

// ScheduleSink receives the schedule incrementally while the router
// produces it: OnStart once with the grid and the pristine initial
// layout, then OnLayer for every sealed braiding cycle, in order. The
// layer and its braid paths are router-owned scratch — consume or copy
// them before returning, never retain them. Returning an error aborts
// the compile (the streaming service uses this to stop routing when a
// client hangs up).
type ScheduleSink = core.ScheduleSink

// WithScheduleSink streams the schedule out of the compile as the router
// seals each braiding cycle, instead of (in addition to, strictly — the
// Result still carries the full schedule) waiting for Compile to return.
// The sink observes the raw route output: WithCompaction's hoisting runs
// afterwards and is not replayed, so combine the two only when the
// streamed prefix being pre-compaction is acceptable. Each compile
// attempt calls OnStart once; under WithFallback a failed primary may
// therefore be followed by a second OnStart from the fallback method —
// single-shot sinks (wire.StreamEncoder) reject that, failing the
// fallback, so streaming is typically used without a fallback chain.
// Compile ignores a nil sink.
func WithScheduleSink(s ScheduleSink) Option {
	return func(o *options) { o.sink = s }
}

// WithDefects compiles against degraded hardware: the tiles, vertices and
// channels of d are treated as permanently unusable. The caller's grid is
// never mutated — Compile clones it before applying the defects, and the
// returned Result.Grid is the degraded clone. An invalid map (out-of-range
// ids, non-adjacent channel endpoints) fails the compile with a validation
// error.
func WithDefects(d *DefectMap) Option {
	return func(o *options) { o.defects = d }
}

// WithContext attaches a context that is honored before placement and at
// every cycle boundary of the routing loop. Once the context is done,
// Compile returns an error matching ErrCanceled; with an already-canceled
// context it returns before any routing work.
func WithContext(ctx context.Context) Option {
	return func(o *options) { o.ctx = ctx }
}

// WithTimeout bounds the whole compile (all fallback attempts included)
// by d, layered on top of any WithContext context. A fired deadline
// surfaces as ErrCanceled.
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.timeout = d }
}

// WithFallback configures graceful degradation: when the primary method
// fails to route (typically ErrUnroutable on heavily-defective hardware),
// the listed methods are tried in order and the first success is returned
// with Result.Degraded set and Result.FallbackMethod naming the method
// that succeeded. Cancellation and insufficient-capacity failures are
// method-independent and abort the chain immediately. When every method
// fails, the primary method's error is returned.
func WithFallback(methods ...string) Option {
	return func(o *options) { o.fallback = append(o.fallback, methods...) }
}

// InjectDefects samples a random defect map for g at the given rate (see
// the fault-injection harness: tiles and channels fail at rate, vertices
// at rate/4) and returns a degraded clone of g along with the map. The
// sample is deterministic per (grid, rate, seed). The returned map can be
// serialized with EncodeDefects or replayed via WithDefects on the
// pristine grid.
func InjectDefects(g *Grid, rate float64, seed int64) (*Grid, *DefectMap) {
	return faultinject.Inject(g, rate, seed)
}

// EncodeDefects serializes a defect map as JSON.
func EncodeDefects(d *DefectMap) ([]byte, error) { return grid.EncodeDefects(d) }

// DecodeDefects parses EncodeDefects output; the map is validated against
// the target grid when applied (WithDefects / Grid.ApplyDefects).
func DecodeDefects(data []byte) (*DefectMap, error) { return grid.DecodeDefects(data) }

// WithCompaction inserts the compact pass into the compile pipeline,
// between route and finalize-metrics: braids are hoisted into earlier
// cycles where dependencies and lattice occupancy allow, so latency
// never increases and often shrinks on schedules produced by weaker
// orderings. Schedules with inserted SWAPs (the AutoBraid baseline)
// pass through unchanged. Metrics are computed after compaction by the
// finalize pass, so Result.Latency always describes the returned
// schedule.
func WithCompaction() Option {
	return func(o *options) { o.compact = true }
}

// WithRouteWorkers does nothing: the speculative route step of the
// *-parallel methods runs on the calling goroutine, so there is no
// worker pool to size. Fingerprint ignores it.
//
// Deprecated: it stays only because existing callers still pass it,
// among them the hlbench harness, whose route.par_scaling metric times
// the step at 1 and at GOMAXPROCS workers. Drop it from new code.
func WithRouteWorkers(n int) Option { return func(*options) {} }

// Methods returns the method names accepted by WithMethod, sorted.
// Every name resolves to a declarative pipeline spec in core's static
// registry, so enumeration instantiates no components and draws no
// random state. The slice is a fresh copy on every call: mutating it
// cannot corrupt the registry or later calls.
func Methods() []string { return core.MethodNames() }

// Compile maps the circuit onto the grid and returns the braiding
// schedule with its metrics. The selected method resolves to a
// declarative pipeline spec (validate → decompose-swaps → qco →
// capacity → place → route → adjust → compact → finalize-metrics, with
// the optional stages present only when enabled); Result.Trace records
// each executed stage's duration and counters. The schedule is
// guaranteed to validate against the returned (possibly QCO-rewritten)
// circuit — including on defective hardware (WithDefects), where every
// braid provably avoids dead tiles, vertices and channels. Failures are
// typed: ErrNilCircuit / ErrNilGrid for missing inputs,
// ErrGridTooLarge for a grid past the router's search heap,
// ErrInsufficientCapacity when the circuit is wider than the grid's
// usable tiles, ErrUnroutable when defects disconnect a gate's
// operands, and ErrCanceled when a WithContext / WithTimeout deadline
// fires.
func Compile(c *Circuit, g *Grid, opts ...Option) (*Result, error) {
	o := newOptions(opts)
	return compile(c, g, &o, nil)
}

// compile is Compile with the options resolved and, for a recompile, the
// parent to warm-start from. With a parent, the first attempt runs warm
// under the primary method (warmAttempt); any warm failure but
// cancellation falls through to the cold attempts, which run on the
// same degraded grid under the same context and deadline.
func compile(c *Circuit, g *Grid, o *options, parent *warmParent) (*Result, error) {
	if c == nil {
		return nil, ErrNilCircuit
	}
	if g == nil {
		return nil, ErrNilGrid
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("hilight: invalid circuit: %w", err)
	}

	ctx, cancel, err := o.compileContext()
	if err != nil {
		return nil, err
	}
	defer cancel()

	chain := append([]string{o.method}, o.fallback...)
	specs := make([]core.Spec, len(chain))
	for i, name := range chain {
		sp, ok := core.LookupMethod(name)
		if !ok {
			return nil, fmt.Errorf("hilight: unknown method %q (have %v)", name, Methods())
		}
		specs[i] = sp
	}

	baseGrid := g
	if !o.defects.Empty() {
		gg := g.Clone()
		if err := gg.ApplyDefects(o.defects); err != nil {
			return nil, err
		}
		g = gg
	}

	if parent != nil {
		res, err := o.warmAttempt(ctx, c, g, specs[0], parent)
		if errors.Is(err, ErrCanceled) {
			return nil, err
		}
		if res != nil && err == nil {
			res.BaseGrid = baseGrid
			return res, nil
		}
	}

	var firstErr error
	for i, name := range chain {
		if i > 0 && o.metrics != nil {
			// A fallback method is being activated: the primary (or an
			// earlier fallback) failed with a recoverable error.
			o.metrics.Counter("compile/fallback-activations").Inc()
		}
		res, err := core.Run(c, g, specs[i], o.runOptions(ctx))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			// Cancellation, capacity and grid-size failures are
			// method-independent: no fallback can recover them, so abort
			// the chain.
			var capErr *ErrInsufficientCapacity
			var sizeErr *ErrGridTooLarge
			if errors.Is(err, ErrCanceled) || errors.As(err, &capErr) || errors.As(err, &sizeErr) {
				return nil, err
			}
			continue
		}
		if i > 0 {
			res.Degraded = true
			res.FallbackMethod = name
			if o.metrics != nil {
				o.metrics.Counter("compile/fallback-recovered").Inc()
			}
		}
		// The pristine caller grid, so Recompile can rebuild the degraded
		// grid from a fresh DefectMap delta.
		res.BaseGrid = baseGrid
		return res, nil
	}
	return nil, firstErr
}

// compileContext returns the compile's context — o.ctx with o.timeout
// layered on top — and the cancel func the caller defers. An
// already-done context fails with ErrCanceled before any placement or
// routing.
func (o *options) compileContext() (context.Context, context.CancelFunc, error) {
	ctx, cancel := o.ctx, context.CancelFunc(func() {})
	if o.timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			cancel()
			return nil, nil, fmt.Errorf("hilight: %w (%v)", ErrCanceled, err)
		}
	}
	return ctx, cancel, nil
}

// runOptions builds the core options of one compile attempt, cold or
// warm. Each attempt gets a fresh seeded rng, so a method sees the same
// random stream whether it runs as primary, as fallback or after a
// failed warm attempt. The rng seeds itself on its first draw, which
// most methods never make, and no method makes during a warm start,
// which skips placement.
func (o *options) runOptions(ctx context.Context) core.RunOptions {
	return core.RunOptions{
		Rng:       core.NewRand(o.seed),
		QCO:       o.qco,
		Observer:  o.observer,
		Sink:      o.sink,
		Metrics:   o.metrics,
		Ctx:       ctx,
		Compact:   o.compact,
		Placement: o.placement,
	}
}

// Benchmark builds a named Table 1 benchmark circuit (see BenchmarkNames).
func Benchmark(name string) (*Circuit, bool) {
	e, ok := bench.ByName(name)
	if !ok {
		return nil, false
	}
	return e.Build(), true
}

// BenchmarkNames lists the built-in Table 1 benchmarks, sorted. The
// slice is a fresh copy on every call — like Methods, callers may keep
// or mutate it without corrupting the registry.
func BenchmarkNames() []string {
	entries := bench.Table1()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// Generators for the paper's parametric workloads, re-exported.
var (
	// QFT builds the n-qubit quantum Fourier transform (n² gates).
	QFT = bench.QFT
	// BV builds the Bernstein–Vazirani circuit with an all-ones string.
	BV = bench.BV
	// CC builds the counterfeit-coin circuit.
	CC = bench.CC
	// Ising builds 1D transverse-field Ising Trotter steps.
	Ising = bench.Ising
	// QAOA builds a QAOA instance with the given ZZ count and depth.
	QAOA = bench.QAOA
	// GHZ builds the GHZ-state preparation chain.
	GHZ = bench.GHZ
)
