// Package qco implements HiLight's program-level quantum-circuit
// optimization (§3.3): reordering commuting CX gates — the two rules of
// Fig. 6, exchanging sequential CXs that share a control or share a
// target — to raise braiding parallelism before mapping.
//
// The optimizer builds a commutation-aware dependency DAG (gates on the
// same qubit depend on each other only when they do not commute) and
// re-emits the circuit in ASAP layer order. The paper folds this into
// gate-list generation; performing it as a standalone rewrite is
// equivalent and lets the schedule validator check the result against the
// rewritten circuit.
package qco

import (
	"cmp"
	"slices"

	"hilight/internal/circuit"
)

// role classifies how a gate touches a qubit for commutation analysis.
type role uint8

const (
	roleNone    role = iota
	roleControl      // Z-basis side of a CX, or a Z-diagonal 1Q gate
	roleTarget       // X-basis side of a CX, or an X-axis 1Q gate
	roleBarrier      // anything else: blocks reordering on this qubit
)

// gateRole returns how g acts on qubit q.
func gateRole(g circuit.Gate, q int) role {
	switch g.Kind {
	case circuit.CX:
		if g.Q0 == q {
			return roleControl
		}
		return roleTarget
	case circuit.CZ:
		return roleControl // CZ is Z-diagonal on both qubits
	case circuit.Z, circuit.S, circuit.Sdg, circuit.T, circuit.Tdg,
		circuit.RZ, circuit.U1:
		return roleControl
	case circuit.X, circuit.RX:
		return roleTarget
	case circuit.I:
		return roleNone
	}
	return roleBarrier
}

// Commute reports whether adjacent gates a and b may be exchanged: on
// every qubit they share, both must act in the same commuting role
// (control/Z-diagonal or target/X-axis). Gates sharing no qubit trivially
// commute.
func Commute(a, b circuit.Gate) bool {
	for _, q := range a.Qubits() {
		if !b.ActsOn(q) {
			continue
		}
		ra, rb := gateRole(a, q), gateRole(b, q)
		if ra == roleNone || rb == roleNone {
			continue
		}
		if ra == roleBarrier || rb == roleBarrier || ra != rb {
			return false
		}
	}
	return true
}

// Optimize rewrites c by hoisting commuting CX gates into the earliest
// layer available, preserving circuit semantics. The result is a new
// circuit; c is unmodified. Gates within a layer keep their original
// relative order, so the rewrite is deterministic.
//
// Its memory follows the gates, whatever the depth: besides the output
// (one slice of exact length) it keeps a layer per gate, a counter per
// layer, and per qubit the layers its open commuting group braids in.
// Its time follows the gates too: a circuit whose layer sets would take
// more than workPerGate steps per gate keeps its original order.
func Optimize(c *circuit.Circuit) *circuit.Circuit {
	n := len(c.Gates)
	// Earliest layer per gate under commutation-aware dependencies.
	// For each qubit, track the open "commuting group": consecutive gates
	// acting in the same role can share or reorder layers; a role change
	// closes the group and forces a dependency on all its members.
	//
	// Two-qubit gates consume a braiding slot: two gates in the same
	// layer cannot share a qubit even when they commute (one braid per
	// qubit per cycle), so each qubit also keeps the layers it braids in.
	// A group's floor never decreases and every probe on the qubit starts
	// at or above it, while the layers of closed groups all lie below it;
	// so only the open group's braid layers can ever answer a probe, and
	// closing a group clears them.
	type qubitState struct {
		groupRole  role
		groupFloor int      // earliest layer the open group may start at
		groupMax   int      // latest layer used inside the open group
		braids     layerSet // layers where the open group braids
	}
	states := make([]qubitState, c.NumQubits)
	// Each qubit's set starts on its own stretch of one shared array,
	// room for a few runs, and moves to its own storage only when its
	// open group braids in more broken runs than that.
	const runsPerQubit = 4
	runs := make([]layerRun, runsPerQubit*c.NumQubits)
	for i := range states {
		states[i] = qubitState{groupRole: roleNone, groupFloor: 0, groupMax: -1}
		states[i].braids.runs = runs[i*runsPerQubit : i*runsPerQubit : (i+1)*runsPerQubit]
	}
	layerOf := make([]int, n)
	maxLayer := 0
	work, budget := 0, workPerGate*n

	for i, g := range c.Gates {
		qs := g.Qubits()
		floor := 0
		for _, q := range qs {
			st := &states[q]
			r := gateRole(g, q)
			if r == roleNone {
				continue
			}
			if st.groupRole == roleNone || r != st.groupRole || r == roleBarrier {
				// Close the previous group: new gate must come after it.
				newFloor := st.groupMax + 1
				if st.groupRole == roleNone {
					newFloor = st.groupFloor
				}
				st.groupRole = r
				st.groupFloor = newFloor
				st.groupMax = newFloor - 1
				st.braids.clear()
			}
			if st.groupFloor > floor {
				floor = st.groupFloor
			}
		}
		if g.TwoQubit() {
			// Find the earliest layer ≥ floor where neither qubit already
			// braids, skipping whole runs of busy layers at a time.
			a, b := &states[g.Q0].braids, &states[g.Q1].braids
			l, steps := probe(a, b, floor)
			layerOf[i] = l
			work += steps + a.add(l) + b.add(l)
			if work > budget {
				return c.Clone()
			}
		} else {
			layerOf[i] = floor
		}
		if layerOf[i] > maxLayer {
			maxLayer = layerOf[i]
		}
		for _, q := range qs {
			st := &states[q]
			if gateRole(g, q) == roleNone {
				continue
			}
			if layerOf[i] > st.groupMax {
				st.groupMax = layerOf[i]
			}
		}
	}

	// Emit in (layer, original index) order: a stable counting sort over
	// layerOf into one slice of exact length.
	start := make([]int, maxLayer+2)
	for _, l := range layerOf {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	out := circuit.New(c.Name, c.NumQubits)
	out.Gates = make([]circuit.Gate, n)
	for i, l := range layerOf {
		out.Gates[start[l]] = c.Gates[i]
		start[l]++
	}
	// Greedy hoisting can occasionally block a later non-commuting gate
	// and deepen the circuit; the paper's QCO "explores multiple branches
	// to find the best option", which here reduces to keeping the rewrite
	// only when it does not lose to the original order.
	if circuit.Depth(out) > circuit.Depth(c) {
		return c.Clone()
	}
	return out
}

// workPerGate bounds Optimize's layer-set work, the runs its probes step
// past and the runs its adds move, on average per gate; Table 1 circuits
// take at most 0.2. Only open groups braiding in thousands of broken
// runs need more: each probe from the group floor then steps past runs
// that the partner's runs interleave, or each add shifts the runs above
// it, so the work grows with the square of the gates. Such a circuit
// keeps its original order, as one whose rewrite would deepen it does.
const workPerGate = 8

// layerSet is a set of layers held as sorted, disjoint, non-adjacent
// runs of consecutive layers, so a probe skips a whole run of busy
// layers in one step and the set's size follows the gates added to it,
// not the layers they span. The zero value is empty.
type layerSet struct {
	runs []layerRun
}

// layerRun is the run of layers lo..hi, inclusive.
type layerRun struct{ lo, hi int }

// clear empties the set, keeping its storage.
func (s *layerSet) clear() { s.runs = s.runs[:0] }

// find returns the index of the last run starting at or below l, or -1.
func (s *layerSet) find(l int) int {
	i, _ := slices.BinarySearchFunc(s.runs, l+1, func(r layerRun, t int) int { return cmp.Compare(r.lo, t) })
	return i - 1
}

// probe returns the earliest layer at or above l that neither a nor b
// holds, and how many runs it stepped past. One binary search per set
// finds the last run starting at or below l; from there each set's
// finger only moves forward as l passes busy runs.
func probe(a, b *layerSet, l int) (layer, steps int) {
	i, j := a.find(l), b.find(l)
	for {
		for i+1 < len(a.runs) && a.runs[i+1].lo <= l {
			i++
			steps++
		}
		for j+1 < len(b.runs) && b.runs[j+1].lo <= l {
			j++
			steps++
		}
		switch {
		case i >= 0 && l <= a.runs[i].hi:
			l = a.runs[i].hi + 1
		case j >= 0 && l <= b.runs[j].hi:
			l = b.runs[j].hi + 1
		default:
			return l, steps
		}
	}
}

// add inserts layer l, which must not be in the set, merging it with
// the runs it touches, and returns how many runs it moved.
func (s *layerSet) add(l int) (moved int) {
	i := s.find(l)
	joinsPrev := i >= 0 && s.runs[i].hi+1 == l
	joinsNext := i+1 < len(s.runs) && s.runs[i+1].lo == l+1
	switch {
	case joinsPrev && joinsNext:
		s.runs[i].hi = s.runs[i+1].hi
		s.runs = slices.Delete(s.runs, i+1, i+2)
		return len(s.runs) - (i + 1)
	case joinsPrev:
		s.runs[i].hi = l
	case joinsNext:
		s.runs[i+1].lo = l
	default:
		s.runs = slices.Insert(s.runs, i+1, layerRun{l, l})
		return len(s.runs) - (i + 2)
	}
	return 0
}

// Depth returns the commutation-unaware two-qubit ASAP depth of c, the
// quantity Optimize tries to shrink. Exposed for tests and ablations.
func Depth(c *circuit.Circuit) int { return circuit.Depth(c) }
