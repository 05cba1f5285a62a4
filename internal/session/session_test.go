package session

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/qco"
	"hilight/internal/sched"
)

func qft(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	for i := 0; i < n; i++ {
		c.Add1(circuit.H, i)
		for j := i + 1; j < n; j++ {
			c.Add2(circuit.CX, j, i)
		}
	}
	return c
}

func TestApplyEdits(t *testing.T) {
	base := circuit.New("base", 3)
	base.Add2(circuit.CX, 0, 1)
	base.Add2(circuit.CX, 1, 2)

	t.Run("append", func(t *testing.T) {
		out, err := ApplyEdits(base, []Edit{{Op: OpAppend, Gate: circuit.NewGate2(circuit.CX, 0, 2)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Gates) != 3 || out.Gates[2] != circuit.NewGate2(circuit.CX, 0, 2) {
			t.Fatalf("append produced %v", out.Gates)
		}
		if len(base.Gates) != 2 {
			t.Fatal("input circuit mutated")
		}
	})
	t.Run("insert", func(t *testing.T) {
		out, err := ApplyEdits(base, []Edit{{Op: OpInsert, Index: 1, Gate: circuit.NewGate1(circuit.H, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		want := []circuit.Gate{base.Gates[0], circuit.NewGate1(circuit.H, 0), base.Gates[1]}
		for i, g := range want {
			if out.Gates[i] != g {
				t.Fatalf("gate %d = %v, want %v", i, out.Gates[i], g)
			}
		}
	})
	t.Run("remove", func(t *testing.T) {
		out, err := ApplyEdits(base, []Edit{{Op: OpRemove, Index: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Gates) != 1 || out.Gates[0] != base.Gates[1] {
			t.Fatalf("remove produced %v", out.Gates)
		}
	})
	t.Run("replace", func(t *testing.T) {
		out, err := ApplyEdits(base, []Edit{{Op: OpReplace, Index: 1, Gate: circuit.NewGate2(circuit.CZ, 0, 2)}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Gates[1] != circuit.NewGate2(circuit.CZ, 0, 2) {
			t.Fatalf("replace produced %v", out.Gates)
		}
	})
	t.Run("errors", func(t *testing.T) {
		cases := [][]Edit{
			{{Op: OpInsert, Index: 5, Gate: circuit.NewGate1(circuit.H, 0)}},
			{{Op: OpRemove, Index: -1}},
			{{Op: OpReplace, Index: 2, Gate: circuit.NewGate1(circuit.H, 0)}},
			{{Op: Op("mangle")}},
			{{Op: OpAppend, Gate: circuit.NewGate2(circuit.CX, 0, 9)}}, // out-of-range qubit
		}
		for i, edits := range cases {
			if _, err := ApplyEdits(base, edits); err == nil {
				t.Errorf("case %d: edits %v accepted, want error", i, edits)
			}
		}
	})
}

// TestWorkingCircuitNeverAliasesInput holds WorkingCircuit to the two
// transforms it stands for, SWAP decomposition and then QCO, on inputs
// with and without a SWAP: the same gates, in storage the input does not
// share, also where a SWAP-free input skips the decomposition's copy.
func TestWorkingCircuitNeverAliasesInput(t *testing.T) {
	swapped := qft(8)
	swapped.Add2(circuit.SWAP, 0, 7)
	for _, c := range []*circuit.Circuit{qft(8), swapped} {
		for _, qcoOn := range []bool{false, true} {
			w := WorkingCircuit(c, qcoOn)
			want := c.DecomposeSWAPs()
			if qcoOn {
				want = qco.Optimize(want)
			}
			if !slices.Equal(w.Gates, want.Gates) {
				t.Errorf("qco %v, swap %v: working circuit differs from the transforms", qcoOn, c.HasSWAP())
			}
			if w == c || &w.Gates[0] == &c.Gates[0] {
				t.Errorf("qco %v, swap %v: working circuit shares the input's storage", qcoOn, c.HasSWAP())
			}
		}
	}
}

func TestCommonPrefixGates(t *testing.T) {
	a := qft(5)
	b := a.Clone()
	if got := CommonPrefixGates(a, b); got != len(a.Gates) {
		t.Fatalf("identical circuits: prefix %d, want %d", got, len(a.Gates))
	}
	b.Gates[7] = circuit.NewGate2(circuit.CZ, 0, 4)
	if got := CommonPrefixGates(a, b); got != 7 {
		t.Fatalf("divergence at 7: prefix %d", got)
	}
	w := circuit.New("wide", a.NumQubits+1)
	if got := CommonPrefixGates(a, w); got != 0 {
		t.Fatalf("width change: prefix %d, want 0", got)
	}
}

// compile is a minimal cold compile through the core pipeline for warm
// replay tests (the public package depends on this one, so tests drive
// core directly).
func compile(t *testing.T, c *circuit.Circuit, g *grid.Grid) *core.Result {
	t.Helper()
	res, err := core.Run(c, g, core.MustMethod("hilight"), core.RunOptions{
		Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	return res
}

// replayableLayers states the router's replay rule on its own, as the
// oracle its cut is held to: the longest run of the parent's non-empty
// layers, from the first, whose braids all execute a gate below the gate
// prefix p, move no qubits, and pass sched.CheckBraid on g. A parent
// layout that g rules out replays nothing.
func replayableLayers(parent *sched.Schedule, p int, g *grid.Grid) int {
	if parent.Initial.Validate(g) != nil {
		return 0
	}
	for li, layer := range parent.Layers {
		if len(layer) == 0 {
			return li
		}
		for _, b := range layer {
			if b.Gate < 0 || b.Gate >= p || b.SwapTiles || sched.CheckBraid(g, b) != nil {
				return li
			}
		}
	}
	return len(parent.Layers)
}

// warmRun warm-starts method on c and g from parent's layout and layers
// with gate prefix p.
func warmRun(c *circuit.Circuit, g *grid.Grid, method string, parent *sched.Schedule, p int) (*core.Result, error) {
	return core.Run(c, g, core.MustMethod(method), core.RunOptions{
		Rng:  rand.New(rand.NewSource(1)),
		Warm: &core.WarmStart{Initial: parent.Initial, Layers: parent.Layers, GatePrefix: p},
	})
}

func TestWarmReplayAppendReplaysEverything(t *testing.T) {
	c := qft(8)
	g := grid.Rect(c.NumQubits)
	parent := compile(t, c, g)

	// An append touches nothing before the end: the whole parent
	// schedule must be replayable.
	edited, err := ApplyEdits(c, []Edit{{Op: OpAppend, Gate: circuit.NewGate2(circuit.CX, 0, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	p := CommonPrefixGates(WorkingCircuit(c, true), WorkingCircuit(edited, true))
	if n := replayableLayers(parent.Schedule, p, g); n != len(parent.Schedule.Layers) {
		t.Fatalf("append: the rule replays %d layers, want all %d", n, len(parent.Schedule.Layers))
	}

	// Warm-run the edited circuit and check the replay really is
	// byte-identical layer by layer.
	res, err := warmRun(edited, g, "hilight", parent.Schedule, p)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if res.WarmCycles != len(parent.Schedule.Layers) {
		t.Fatalf("WarmCycles = %d, want %d", res.WarmCycles, len(parent.Schedule.Layers))
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
	checkPrefixIdentical(t, parent.Schedule, res.Schedule, res.WarmCycles)
}

func TestWarmReplayDefectStopsAtConflict(t *testing.T) {
	c := qft(8)
	g := grid.Rect(c.NumQubits)
	parent := compile(t, c, g)
	p := len(WorkingCircuit(c, true).Gates)

	// Kill the vertex the very first braid routes through: no layer
	// containing that path may replay, so the warm start fails before
	// routing anything.
	firstPath := parent.Schedule.Layers[0][0].Path
	dm := &grid.DefectMap{Vertices: []int{firstPath[len(firstPath)/2]}}
	dg := g.Clone()
	if err := dg.ApplyDefects(dm); err != nil {
		t.Fatal(err)
	}
	if n := replayableLayers(parent.Schedule, p, dg); n != 0 {
		t.Fatalf("defect on layer 0 path: the rule replays %d layers, want 0", n)
	}
	if _, err := warmRun(c, dg, "hilight", parent.Schedule, p); !errors.Is(err, core.ErrWarmStart) {
		t.Fatalf("defect on layer 0 path: err = %v, want ErrWarmStart", err)
	}

	// A defect nothing routes through leaves the full schedule
	// replayable (pick a tile no braid touches, if one exists).
	used := map[int]bool{}
	for _, l := range parent.Schedule.Layers {
		for _, b := range l {
			used[b.CtlTile] = true
			used[b.TgtTile] = true
		}
	}
	free := -1
	for ti := 0; ti < g.Tiles(); ti++ {
		if !used[ti] && g.Usable(ti) {
			free = ti
			break
		}
	}
	if free >= 0 {
		dg2 := g.Clone()
		if err := dg2.ApplyDefects(&grid.DefectMap{Tiles: []int{free}}); err != nil {
			t.Fatal(err)
		}
		res, err := warmRun(c, dg2, "hilight", parent.Schedule, p)
		warm := 0
		if err == nil {
			warm = res.WarmCycles
		} else if !errors.Is(err, core.ErrWarmStart) {
			t.Fatal(err)
		}
		if want := replayableLayers(parent.Schedule, p, dg2); warm != want {
			t.Fatalf("free-tile defect: %d warm cycles, the rule replays %d", warm, want)
		}
		// Paths may still cross the free tile's corners; the replay just
		// must not be trivially empty because of an unrelated defect.
		if warm == 0 && parent.Schedule.Initial.Validate(dg2) == nil {
			ok := false
			for _, b := range parent.Schedule.Layers[0] {
				if b.Path.Validate(dg2) != nil {
					ok = true
				}
			}
			if !ok {
				t.Fatal("unrelated defect emptied the replay")
			}
		}
	}
}

func TestWarmStartMismatchFallsOut(t *testing.T) {
	c := qft(6)
	g := grid.Rect(c.NumQubits)
	parent := compile(t, c, g)

	// Hand the router parent layers that reference gates beyond the
	// edited circuit's end, under a gate prefix that claims them all: it
	// must fail with ErrWarmStart, not emit a broken schedule.
	edited := c.Clone()
	edited.Gates = edited.Gates[:1]
	_, err := warmRun(edited, g, "hilight", parent.Schedule, len(c.Gates))
	if !errors.Is(err, core.ErrWarmStart) {
		t.Fatalf("divergent prefix: err = %v, want ErrWarmStart", err)
	}
}
