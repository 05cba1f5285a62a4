package session

import (
	"math/rand"
	"sync"
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/sched"
)

// fuzzMethods are the parent methods every fuzz case replays from, one
// per route step (sequential and speculative). Both run QCO, so one
// working-circuit prefix serves both.
var fuzzMethods = []string{"hilight", "hilight-parallel"}

// fuzzParent caches one cold compile per fuzz method, shared by every
// fuzz execution — the corpus mutates deltas, not the parents.
var fuzzParent struct {
	once sync.Once
	c    *circuit.Circuit
	g    *grid.Grid
	res  []*core.Result // parallel to fuzzMethods
}

func fuzzSetup(f *testing.F) (*circuit.Circuit, *grid.Grid, []*core.Result) {
	fuzzParent.once.Do(func() {
		c := qft(6)
		g := grid.Rect(c.NumQubits)
		for _, method := range fuzzMethods {
			res, err := core.Run(c, g, core.MustMethod(method), core.RunOptions{
				Rng: rand.New(rand.NewSource(1)),
			})
			if err != nil {
				f.Fatalf("fuzz parent compile %s: %v", method, err)
			}
			fuzzParent.res = append(fuzzParent.res, res)
		}
		fuzzParent.c, fuzzParent.g = c, g
	})
	return fuzzParent.c, fuzzParent.g, fuzzParent.res
}

// decodeEdits turns fuzz bytes into an edit list: 5 bytes per edit
// (op, index lo/hi, kind, operand byte). Hostile on purpose — indices
// and kinds are unclamped, so invalid edits exercise the error paths.
func decodeEdits(data []byte) []Edit {
	var edits []Edit
	for len(data) >= 5 && len(edits) < 16 {
		op := []Op{OpAppend, OpInsert, OpRemove, OpReplace, Op("bogus")}[int(data[0])%5]
		idx := int(int16(uint16(data[1]) | uint16(data[2])<<8))
		kind := circuit.Kind(data[3])
		q0 := int(data[4]) % 8
		q1 := (q0 + 1 + int(data[4])>>3) % 8
		edits = append(edits, Edit{Op: op, Index: idx, Gate: circuit.Gate{Kind: kind, Q0: q0, Q1: q1}})
		data = data[5:]
	}
	return edits
}

// FuzzDelta throws hostile delta inputs at the whole session path:
// edits are applied (or rejected), the plan is computed from each fuzz
// parent, and when a warm start is possible the pipeline must either
// fail cleanly or produce a schedule that fully validates — an invalid
// schedule is the one outcome that must never happen.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{0, 0, 0, 9, 3})                // append CX
	f.Add([]byte{1, 2, 0, 9, 5, 2, 1, 0, 0, 0}) // insert + remove
	f.Add([]byte{3, 255, 255, 200, 7})          // replace at -1 with bogus kind
	f.Add([]byte{4, 0, 0, 0, 0})                // unknown op
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 0, 0, 0}) // remove head twice

	c, g, parents := fuzzSetup(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		edits := decodeEdits(data)
		edited, err := ApplyEdits(c, edits)
		if err != nil {
			return // rejected deltas are fine; panics are not
		}
		if err := edited.Validate(); err != nil {
			t.Fatalf("ApplyEdits accepted an invalid circuit: %v", err)
		}
		p := CommonPrefixGates(WorkingCircuit(c, true), WorkingCircuit(edited, true))
		for i, parent := range parents {
			method := fuzzMethods[i]
			plan := PlanPrefix(parent.Schedule, p, g)
			if plan.PrefixLen > len(parent.Schedule.Layers) {
				t.Fatalf("%s: plan prefix %d exceeds parent layers %d", method, plan.PrefixLen, len(parent.Schedule.Layers))
			}
			if plan.PrefixLen == 0 {
				continue
			}
			res, err := core.Run(edited, g, core.MustMethod(method), core.RunOptions{
				Rng:  rand.New(rand.NewSource(1)),
				Warm: &core.WarmStart{Initial: plan.Initial, Prefix: plan.Prefix},
			})
			if err != nil {
				continue // a clean warm failure degrades to cold in the public API
			}
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Fatalf("%s: warm schedule invalid after edits %v: %v", method, edits, err)
			}
			if res.WarmCycles != plan.PrefixLen {
				t.Fatalf("%s: WarmCycles %d != plan %d", method, res.WarmCycles, plan.PrefixLen)
			}
			checkPrefixIdentical(t, parent.Schedule, res.Schedule, plan.PrefixLen)
		}
	})
}

// checkPrefixIdentical asserts the first n layers of b equal a's.
func checkPrefixIdentical(t *testing.T, a, b *sched.Schedule, n int) {
	t.Helper()
	for li := 0; li < n; li++ {
		la, lb := a.Layers[li], b.Layers[li]
		if len(la) != len(lb) {
			t.Fatalf("prefix layer %d: %d braids vs %d", li, len(la), len(lb))
		}
		for bi := range la {
			if la[bi].Gate != lb[bi].Gate || la[bi].CtlTile != lb[bi].CtlTile ||
				la[bi].TgtTile != lb[bi].TgtTile || la[bi].SwapTiles != lb[bi].SwapTiles {
				t.Fatalf("prefix layer %d braid %d diverged", li, bi)
			}
			if len(la[bi].Path) != len(lb[bi].Path) {
				t.Fatalf("prefix layer %d braid %d path diverged", li, bi)
			}
			for pi := range la[bi].Path {
				if la[bi].Path[pi] != lb[bi].Path[pi] {
					t.Fatalf("prefix layer %d braid %d path vertex %d diverged", li, bi, pi)
				}
			}
		}
	}
}
