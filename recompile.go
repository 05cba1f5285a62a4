package hilight

import (
	"errors"
	"fmt"
	"math/rand"

	"hilight/internal/core"
	"hilight/internal/sched"
	"hilight/internal/session"
)

// EditOp enumerates the circuit-edit operations a Delta may carry.
type EditOp = session.Op

// Circuit-edit operations. OpAppend ignores Edit.Index; the others
// address a gate position in the previous result's input circuit.
const (
	OpAppend  = session.OpAppend
	OpInsert  = session.OpInsert
	OpRemove  = session.OpRemove
	OpReplace = session.OpReplace
)

// Edit is one circuit edit of a Delta: an operation, the gate position
// it applies to, and the gate payload for append/insert/replace.
type Edit = session.Edit

// Delta describes what changed since a previous compile: circuit edits
// applied to the parent's input circuit, a replacement DefectMap, or
// both. The zero Delta recompiles the unchanged circuit (which replays
// the whole parent schedule).
type Delta struct {
	// Edits apply in order to the parent's input circuit.
	Edits []Edit `json:"edits,omitempty"`
	// Defects, when non-nil, replaces the defect map entirely: the new
	// grid is the parent's pristine BaseGrid degraded by this map (an
	// empty map heals all defects). Nil keeps the parent's grid.
	Defects *DefectMap `json:"defects,omitempty"`
}

// ErrWarmStart matches warm-start replay failures surfaced by the core
// pipeline. Recompile handles it internally (falling back to a cold
// compile); it is exported for callers driving core.RunOptions.Warm
// directly.
var ErrWarmStart = core.ErrWarmStart

// Recompile compiles an edited version of a previous result, reusing as
// much of the parent's work as the delta allows: the parent's placement
// is adopted verbatim and the longest still-valid prefix of the parent
// schedule is replayed byte-identically, so only the affected suffix
// pays routing cost. Result.WarmCycles reports how many layers were
// replayed (0 when the engine had to fall back to a cold compile — a
// fallback is always silent and always correct, never an error), and
// Result.Delta reports exactly what changed versus the parent schedule.
//
// The method defaults to the parent's; options override it and
// everything else, exactly as in Compile. Warm starts are incompatible
// with WithCompaction, WithFallback and layout-adjusting methods
// (anything that rewrites replayed cycles): those recompiles run cold
// but still report Delta.
func Recompile(prev *Result, delta Delta, opts ...Option) (*Result, error) {
	if prev == nil || prev.Schedule == nil || prev.Input == nil {
		return nil, fmt.Errorf("hilight: Recompile needs a previous Result with its Schedule and Input circuit")
	}
	edited, err := session.ApplyEdits(prev.Input, delta.Edits)
	if err != nil {
		return nil, fmt.Errorf("hilight: %w", err)
	}
	// Append-only deltas (the dominant session edit) get an incremental
	// working circuit: the parent's routed circuit plus the decomposed
	// new gates. This keeps the parent prefix intact by construction and
	// skips re-running SWAP decomposition and QCO over the whole edited
	// circuit — the transforms would otherwise rival the routing cost
	// the warm start saves. A zero-edit delta (defects only) reuses the
	// parent's working circuit outright.
	var childWorking *Circuit
	if prev.Circuit != nil {
		appendOnly := true
		for _, e := range delta.Edits {
			if e.Op != OpAppend {
				appendOnly = false
				break
			}
		}
		if appendOnly {
			if len(delta.Edits) == 0 {
				childWorking = prev.Circuit
			} else {
				gs := make([]Gate, len(delta.Edits))
				for i, e := range delta.Edits {
					gs[i] = e.Gate
				}
				childWorking = session.AppendWorking(prev.Circuit, gs)
			}
		}
	}
	g := prev.Grid
	if delta.Defects != nil {
		// A defect delta replaces the map: rebuild from the pristine grid.
		if prev.BaseGrid != nil {
			g = prev.BaseGrid
		}
		opts = append(opts, WithDefects(delta.Defects))
	}
	if prev.Method != "" {
		opts = append([]Option{WithMethod(prev.Method)}, opts...)
	}
	// prev.Circuit is the parent's working circuit (post SWAP
	// decomposition and QCO): reusing it saves recomputing both
	// transforms just to find the common prefix. If the caller's options
	// resolve QCO differently than the parent's compile did, the prefix
	// comes out wrong and replay verification degrades to cold — never
	// an incorrect schedule.
	res, err := recompileFrom(prev.Input, prev.Circuit, childWorking, prev.Schedule, edited, g, opts...)
	if err != nil {
		return nil, err
	}
	if delta.Defects == nil && prev.BaseGrid != nil {
		// The grid we compiled on was already the degraded one; keep the
		// true pristine grid so a later defect delta can rebuild from it.
		res.BaseGrid = prev.BaseGrid
	}
	return res, nil
}

// RecompileFrom is the service-shaped entry to the session engine: the
// parent is given as its input circuit and schedule (exactly what the
// schedule cache persists) instead of a full Result. c is the new
// (already edited) circuit and g the pristine grid; options are applied
// as in Compile. See Recompile for the warm-start semantics.
func RecompileFrom(parentCircuit *Circuit, parentSched *Schedule, c *Circuit, g *Grid, opts ...Option) (*Result, error) {
	return recompileFrom(parentCircuit, nil, nil, parentSched, c, g, opts...)
}

// recompileFrom is RecompileFrom with optional precomputed parent and
// child working circuits (nil recomputes them from the input circuits).
func recompileFrom(parentCircuit, parentWorking, childWorking *Circuit, parentSched *Schedule, c *Circuit, g *Grid, opts ...Option) (*Result, error) {
	if parentCircuit == nil || parentSched == nil {
		return nil, fmt.Errorf("hilight: RecompileFrom needs the parent circuit and schedule")
	}
	o := newOptions(opts)
	if c == nil {
		return nil, ErrNilCircuit
	}
	if g == nil {
		return nil, ErrNilGrid
	}
	// No explicit c.Validate here: the pipeline's validate pass (and the
	// cold-fallback Compile) checks the circuit before any work happens,
	// and re-walking every gate per recompile is measurable on the
	// session hot path.
	sp, ok := core.LookupMethod(o.method)
	if !ok {
		return nil, fmt.Errorf("hilight: unknown method %q (have %v)", o.method, Methods())
	}

	// Anything that would rewrite replayed cycles — or retry with a
	// different method mid-flight — rules the warm path out.
	warmable := sp.Adjuster == "" && !o.compact && len(o.fallback) == 0

	var plan session.Plan
	var cw *Circuit
	dg := g
	if warmable {
		if !o.defects.Empty() {
			gg := g.Clone()
			if err := gg.ApplyDefects(o.defects); err != nil {
				return nil, err
			}
			dg = gg
		}
		qcoOn := sp.QCO
		if o.qco != nil {
			qcoOn = *o.qco
		}
		pw := parentWorking
		if pw == nil {
			pw = session.WorkingCircuit(parentCircuit, qcoOn)
		}
		cw = childWorking
		if cw == nil {
			cw = session.WorkingCircuit(c, qcoOn)
		}
		plan = session.PlanPrefix(parentSched, session.CommonPrefixGates(pw, cw), dg)
	}

	var res *Result
	var err error
	if plan.PrefixLen > 0 {
		res, err = runWarm(c, dg, sp, &o, &plan, cw)
		if err != nil && !errors.Is(err, ErrCanceled) {
			// Any warm failure — a replay mismatch, or a suffix the parent
			// placement cannot route — degrades to a cold compile, which
			// may still succeed under a fresh placement.
			res, err = nil, nil
		}
	}
	if res == nil && err == nil {
		res, err = Compile(c, g, opts...)
	}
	if err != nil {
		return nil, err
	}
	res.BaseGrid = g
	d := sched.Compare(parentSched, res.Schedule)
	res.Delta = &d
	return res, nil
}

// runWarm executes one warm-start pipeline attempt for the resolved
// method spec and plan. It shares Compile's context and option setup but
// not its fallback chain, which the caller owns.
func runWarm(c *Circuit, dg *Grid, sp core.Spec, o *options, plan *session.Plan, working *Circuit) (*Result, error) {
	ctx, cancel, err := o.compileContext()
	if err != nil {
		return nil, err
	}
	defer cancel()
	ro := o.runOptions(ctx, rand.New(&warmSource{s: uint64(o.seed)}))
	ro.Warm = &core.WarmStart{Initial: plan.Initial, Prefix: plan.Prefix, Working: working}
	return core.Run(c, dg, sp, ro)
}

// warmSource is a splitmix64 rand.Source for warm recompiles: seeding
// the stdlib source costs more than replaying a short prefix, while a
// warm suffix consumes only a handful of values for ordering
// tie-breaks. The stream differing from Compile's is fine — a warm
// result promises a valid schedule with a byte-identical replayed
// prefix, not the exact schedule a cold compile would emit — and
// determinism holds: same seed, same schedule.
type warmSource struct{ s uint64 }

func (w *warmSource) Seed(seed int64) { w.s = uint64(seed) }

func (w *warmSource) Int63() int64 {
	w.s += 0x9e3779b97f4a7c15
	z := w.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
