package hilight

import (
	"context"
	"fmt"

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

// Recompile compiles an edited version of a previous result, reusing as
// much of the parent's work as the delta allows: the parent's placement
// is adopted verbatim and the longest still-valid prefix of the parent
// schedule is replayed byte-identically, so only the affected suffix
// pays routing cost. The router decides which parent layers still hold
// and checks each one as it replays. Result.WarmCycles reports how many
// layers were replayed (0 when the engine had to fall back to a cold
// compile — a fallback is always silent and always correct, never an
// error), and Result.Delta reports exactly what changed versus the
// parent schedule.
//
// When every layer of prev.Schedule replays (an append, say), the
// result's schedule shares those layers, with their braids and paths,
// with prev.Schedule instead of copying them; a shorter replay is
// copied, so a result never keeps its parent's storage alive for layers
// it does not hold. Every returned schedule is therefore read-only; copy
// a layer before changing it.
//
// The warm start is the first attempt of Compile's attempt loop: the
// cold compile it falls back to runs on the same degraded grid, and
// WithTimeout bounds both together. The method defaults to the
// parent's; options override it and everything else, exactly as in
// Compile. Warm starts are incompatible with WithCompaction,
// WithFallback and layout-adjusting methods (anything that rewrites
// replayed cycles): those recompiles run cold but still report Delta.
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
	p := &warmParent{schedule: prev.Schedule, input: prev.Input, working: prev.Circuit, childWorking: childWorking}
	res, err := recompileFrom(p, edited, g, opts...)
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
// as in Compile. See Recompile for the warm-start semantics: a result
// that replays every layer of parentSched shares them, with their paths,
// so both are read-only from then on.
func RecompileFrom(parentCircuit *Circuit, parentSched *Schedule, c *Circuit, g *Grid, opts ...Option) (*Result, error) {
	return recompileFrom(&warmParent{schedule: parentSched, input: parentCircuit}, c, g, opts...)
}

// recompileFrom compiles c on g warm-started from p and reports the diff
// against the parent schedule.
func recompileFrom(p *warmParent, c *Circuit, g *Grid, opts ...Option) (*Result, error) {
	if p.input == nil || p.schedule == nil {
		return nil, fmt.Errorf("hilight: RecompileFrom needs the parent circuit and schedule")
	}
	o := newOptions(opts)
	res, err := compile(c, g, &o, p)
	if err != nil {
		return nil, err
	}
	d := sched.Compare(p.schedule, res.Schedule)
	res.Delta = &d
	return res, nil
}

// warmParent is the compile a recompile warm-starts from: its schedule
// and input circuit, and the working circuits of the parent and of the
// child when the caller has them (nil rebuilds them from the inputs).
type warmParent struct {
	schedule              *Schedule
	input                 *Circuit
	working, childWorking *Circuit
}

// warmAttempt runs the warm attempt of a recompile from p under the
// primary method's spec sp: the parent's layout is adopted and the route
// pass replays the parent layers that still hold before routing the
// rest. It returns no result and no error when a warm start is ruled
// out: an adjuster, compaction or a fallback chain would rewrite replayed
// cycles or retry mid-flight, and a zero shared gate prefix replays
// nothing.
func (o *options) warmAttempt(ctx context.Context, c *Circuit, g *Grid, sp core.Spec, p *warmParent) (*Result, error) {
	if sp.Adjuster != "" || o.compact || len(o.fallback) > 0 {
		return nil, nil
	}
	qcoOn := sp.QCO
	if o.qco != nil {
		qcoOn = *o.qco
	}
	pw, cw := p.working, p.childWorking
	if pw == nil {
		pw = session.WorkingCircuit(p.input, qcoOn)
	}
	if cw == nil {
		cw = session.WorkingCircuit(c, qcoOn)
	}
	prefix := session.CommonPrefixGates(pw, cw)
	if prefix == 0 {
		return nil, nil
	}
	ro := o.runOptions(ctx)
	ro.Warm = &core.WarmStart{Initial: p.schedule.Initial, Layers: p.schedule.Layers, GatePrefix: prefix, Working: cw}
	return core.Run(c, g, sp, ro)
}
