// Package session holds the circuit side of the incremental
// recompilation behind the public hilight.Recompile: it applies a
// delta's edits and builds the working circuits a warm start compares.
//
// The model: a Delta is either a circuit edit (append / insert / remove
// / replace of gates, applied to the parent's input circuit) or a
// DefectMap change (a full replacement map applied to the parent's
// pristine grid). Both reduce to the same question — how much of the
// parent's schedule is still exactly right? Schedules validate against
// the working circuit (input after SWAP decomposition and QCO), so the
// engine rebuilds both working circuits deterministically and takes
// their longest common gate prefix P (CommonPrefixGates): every braid
// for a gate with index < P is routing work the edit cannot have
// changed. P goes to core.RunOptions.Warm with the parent's layers, and
// the route pass alone decides which of them replay: the longest run of
// whole layers whose braids execute gates below P, carry no inserted
// SWAP and pass sched.CheckBraid on the current grid. It checks each
// replayed braid against the live compile as it replays, so a stale or
// hostile parent degrades to a cold compile, never to an invalid
// schedule.
package session

import (
	"fmt"

	"hilight/internal/circuit"
	"hilight/internal/qco"
)

// Op enumerates circuit-edit operations.
type Op string

// The edit operations a Delta may carry. Append ignores Index; the
// others address a gate position in the parent's input circuit.
const (
	OpAppend  Op = "append"
	OpInsert  Op = "insert"
	OpRemove  Op = "remove"
	OpReplace Op = "replace"
)

// Edit is one circuit edit: an operation, the gate position it applies
// to (in the circuit as it stands after the preceding edits of the same
// Delta), and the gate payload for append/insert/replace.
type Edit struct {
	Op    Op           `json:"op"`
	Index int          `json:"index,omitempty"`
	Gate  circuit.Gate `json:"gate"`
}

// ApplyEdits returns a copy of c with the edits applied in order. The
// input circuit is never mutated. Out-of-range indices, unknown ops and
// edits that leave the circuit structurally invalid fail with an error.
func ApplyEdits(c *circuit.Circuit, edits []Edit) (*circuit.Circuit, error) {
	if c == nil {
		return nil, fmt.Errorf("session: nil circuit")
	}
	// The copy is sized once for the gates the edits add.
	added := 0
	for _, e := range edits {
		if e.Op == OpAppend || e.Op == OpInsert {
			added++
		}
	}
	out := circuit.New(c.Name, c.NumQubits)
	out.Gates = append(make([]circuit.Gate, 0, len(c.Gates)+added), c.Gates...)
	appendOnly := true
	for i, e := range edits {
		switch e.Op {
		case OpAppend:
			out.Gates = append(out.Gates, e.Gate)
		case OpInsert:
			appendOnly = false
			if e.Index < 0 || e.Index > len(out.Gates) {
				return nil, fmt.Errorf("session: edit %d: insert index %d out of range [0,%d]", i, e.Index, len(out.Gates))
			}
			out.Gates = append(out.Gates, circuit.Gate{})
			copy(out.Gates[e.Index+1:], out.Gates[e.Index:])
			out.Gates[e.Index] = e.Gate
		case OpRemove:
			appendOnly = false
			if e.Index < 0 || e.Index >= len(out.Gates) {
				return nil, fmt.Errorf("session: edit %d: remove index %d out of range [0,%d)", i, e.Index, len(out.Gates))
			}
			out.Gates = append(out.Gates[:e.Index], out.Gates[e.Index+1:]...)
		case OpReplace:
			appendOnly = false
			if e.Index < 0 || e.Index >= len(out.Gates) {
				return nil, fmt.Errorf("session: edit %d: replace index %d out of range [0,%d)", i, e.Index, len(out.Gates))
			}
			out.Gates[e.Index] = e.Gate
		default:
			return nil, fmt.Errorf("session: edit %d: unknown op %q", i, e.Op)
		}
	}
	if appendOnly {
		// Append-only deltas — the session hot path — only need the new
		// gates checked: the parent prefix was validated when the parent
		// compiled, and re-walking it would cost O(circuit) per edit.
		probe := circuit.New(out.Name, out.NumQubits)
		probe.Gates = out.Gates[len(c.Gates):]
		if err := probe.Validate(); err != nil {
			return nil, fmt.Errorf("session: appended gates invalid: %w", err)
		}
		return out, nil
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("session: edited circuit invalid: %w", err)
	}
	return out, nil
}

// WorkingCircuit rebuilds the circuit the router actually schedules:
// the input after SWAP decomposition and, when the method enables it,
// the program-level QCO rewrite. Both transforms are deterministic, so
// the parent's working circuit can be reconstructed from its input
// circuit alone — which is what lets the service warm-start from a
// cached QASM string instead of persisting the rewritten gate list.
// Under QCO a SWAP-free input skips the decomposition's copy, as the
// pipeline does: qco.Optimize always returns a fresh circuit.
func WorkingCircuit(c *circuit.Circuit, qcoOn bool) *circuit.Circuit {
	if !qcoOn {
		return c.DecomposeSWAPs()
	}
	if c.HasSWAP() {
		c = c.DecomposeSWAPs()
	}
	return qco.Optimize(c)
}

// AppendWorking extends a parent working circuit with freshly appended
// input gates, transformed the way the pipeline would (SWAP
// decomposition). QCO is deliberately NOT re-run across the seam: the
// result is a valid — at worst slightly less optimized — working
// circuit for the edited input whose parent prefix is intact by
// construction, which is exactly what a warm start wants. Recomputing
// the transforms from the full edited input instead would cost O(gates)
// and could let QCO weave the appended gate into the middle, shrinking
// the replayable prefix to wherever the weave landed.
func AppendWorking(parentWorking *circuit.Circuit, appended []circuit.Gate) *circuit.Circuit {
	tail := circuit.New(parentWorking.Name, parentWorking.NumQubits)
	tail.Append(appended...)
	tail = tail.DecomposeSWAPs()
	out := circuit.New(parentWorking.Name, parentWorking.NumQubits)
	out.Gates = make([]circuit.Gate, 0, len(parentWorking.Gates)+len(tail.Gates))
	out.Gates = append(append(out.Gates, parentWorking.Gates...), tail.Gates...)
	return out
}

// CommonPrefixGates returns the length of the longest common gate
// prefix of two working circuits, or 0 when the qubit counts differ
// (a width change invalidates placement outright).
func CommonPrefixGates(a, b *circuit.Circuit) int {
	if a == nil || b == nil || a.NumQubits != b.NumQubits {
		return 0
	}
	n := len(a.Gates)
	if len(b.Gates) < n {
		n = len(b.Gates)
	}
	for i := 0; i < n; i++ {
		if a.Gates[i] != b.Gates[i] {
			return i
		}
	}
	return n
}
