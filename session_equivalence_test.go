package hilight_test

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"hilight"
)

// sameLayerPrefix asserts the first n layers of b are byte-identical to
// a's — gate, tiles, swap flag and every path vertex.
func sameLayerPrefix(t *testing.T, a, b *hilight.Schedule, n int, label string) {
	t.Helper()
	if n > len(a.Layers) || n > len(b.Layers) {
		t.Fatalf("%s: prefix %d exceeds schedules (%d vs %d layers)", label, n, len(a.Layers), len(b.Layers))
	}
	for li := 0; li < n; li++ {
		la, lb := a.Layers[li], b.Layers[li]
		if len(la) != len(lb) {
			t.Fatalf("%s: layer %d has %d braids, parent %d", label, li, len(lb), len(la))
		}
		for bi := range la {
			x, y := la[bi], lb[bi]
			if x.Gate != y.Gate || x.CtlTile != y.CtlTile || x.TgtTile != y.TgtTile || x.SwapTiles != y.SwapTiles {
				t.Fatalf("%s: layer %d braid %d diverged: %+v vs %+v", label, li, bi, x, y)
			}
			if len(x.Path) != len(y.Path) {
				t.Fatalf("%s: layer %d braid %d path lengths diverged", label, li, bi)
			}
			for pi := range x.Path {
				if x.Path[pi] != y.Path[pi] {
					t.Fatalf("%s: layer %d braid %d path vertex %d diverged", label, li, bi, pi)
				}
			}
		}
	}
}

// TestRecompileEquivalenceTable1 is the session equivalence suite: for
// every Table 1 benchmark and both route steps (hilight routes
// sequentially, hilight-map-parallel speculatively), a single-gate edit
// recompile must (1) replay a prefix byte-identical to the parent, (2)
// produce a schedule that fully validates, and (3) stay within the
// cold-compile envelope of the edited circuit — warm starting buys
// time, never schedule quality beyond a bounded slack. The two methods
// run as parallel subtests, so the speculative one does not lengthen
// the slowest benchmark's run.
func TestRecompileEquivalenceTable1(t *testing.T) {
	names := hilight.BenchmarkNames()
	if len(names) == 0 {
		t.Fatal("no Table 1 benchmarks registered")
	}
	if testing.Short() {
		names = names[:6]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, ok := hilight.Benchmark(name)
			if !ok {
				t.Fatalf("benchmark %q vanished", name)
			}
			for _, method := range []string{"hilight", "hilight-map-parallel"} {
				method := method
				t.Run(method, func(t *testing.T) {
					t.Parallel()
					checkRecompileEnvelope(t, c, method)
				})
			}
		})
	}
}

// checkRecompileEnvelope runs one TestRecompileEquivalenceTable1 case:
// c compiled cold with method, then recompiled warm after appending one
// CX.
func checkRecompileEnvelope(t *testing.T, c *hilight.Circuit, method string) {
	g := hilight.RectGrid(c.NumQubits)
	edit := hilight.Edit{Op: hilight.OpAppend, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: c.NumQubits - 1}}

	// Envelope: recompiling the edited circuit cold bounds what the
	// warm path may cost. That compile does not depend on the warm path,
	// so it runs beside it: on the largest benchmarks the two cold
	// compiles are nearly all of the test's time.
	edited := c.Clone()
	edited.Gates = append(edited.Gates, edit.Gate)
	var cold *hilight.Result
	var coldErr error
	coldDone := make(chan struct{})
	go func() {
		defer close(coldDone)
		cold, coldErr = hilight.Compile(edited, g, hilight.WithMethod(method))
	}()
	defer func() { <-coldDone }()

	parent, err := hilight.Compile(c, g, hilight.WithMethod(method))
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	warm, err := hilight.Recompile(parent, hilight.Delta{Edits: []hilight.Edit{edit}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if warm.Delta == nil {
		t.Fatal("Result.Delta not set")
	}
	if err := warm.Schedule.Validate(warm.Circuit); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
	sameLayerPrefix(t, parent.Schedule, warm.Schedule, warm.WarmCycles, "edit")
	if !reflect.DeepEqual(warm.Input.Gates, edited.Gates) {
		t.Fatal("recompiled input differs from the edited circuit")
	}

	<-coldDone
	if coldErr != nil {
		t.Fatalf("cold compile of edited circuit: %v", coldErr)
	}
	// The replayed prefix pins the parent's routing, so a couple of
	// cycles and the appended gate's path are the only slack a warm
	// start may need. QCO may weave the appended gate into the middle of
	// the edited working circuit; the pinned prefix then defers it where
	// a cold route wouldn't, so the envelope is proportional, not
	// constant.
	if slack := cold.Latency/8 + 2; warm.Latency > cold.Latency+slack {
		t.Errorf("warm latency %d vs cold %d: outside envelope", warm.Latency, cold.Latency)
	}
	if cold.PathLen > 0 && float64(warm.PathLen) > 1.25*float64(cold.PathLen)+32 {
		t.Errorf("warm pathlen %d vs cold %d: outside envelope", warm.PathLen, cold.PathLen)
	}
}

// TestRecompileParallelWarm checks that a parallel method recompiles
// warm with its own step: the prefix replays and the suffix routes in a
// route-parallel stage.
func TestRecompileParallelWarm(t *testing.T) {
	c, _ := hilight.Benchmark("QFT-16")
	g := hilight.RectGrid(c.NumQubits)
	parent, err := hilight.Compile(c, g, hilight.WithMethod("hilight-map-parallel"))
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	edit := hilight.Edit{Op: hilight.OpAppend, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: c.NumQubits - 1}}
	warm, err := hilight.Recompile(parent, hilight.Delta{Edits: []hilight.Edit{edit}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if warm.WarmCycles == 0 {
		t.Fatal("recompile ran cold: WarmCycles = 0")
	}
	if err := warm.Schedule.Validate(warm.Circuit); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
	sameLayerPrefix(t, parent.Schedule, warm.Schedule, warm.WarmCycles, "parallel edit")
	for _, st := range warm.Trace {
		if st.Stage == "route-parallel" {
			return
		}
	}
	t.Fatalf("warm recompile ran no route-parallel stage: %+v", warm.Trace)
}

// TestRecompileDefectDelta checks the live-defect path: a DefectMap
// delta recompile validates, replays whatever prefix survives, and the
// result provably routes around every current defect (Validate on the
// degraded grid enforces it).
func TestRecompileDefectDelta(t *testing.T) {
	c, _ := hilight.Benchmark("rd32_270")
	g := hilight.RectGrid(c.NumQubits)
	parent, err := hilight.Compile(c, g)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}

	// Degrade a vertex mid-grid; the session engine must rebuild the
	// grid from BaseGrid and route clear of it.
	dm := &hilight.DefectMap{Vertices: []int{parent.Schedule.Layers[0][0].Path[0]}}
	warm, err := hilight.Recompile(parent, hilight.Delta{Defects: dm})
	if err != nil {
		t.Fatalf("defect recompile: %v", err)
	}
	if err := warm.Schedule.Validate(warm.Circuit); err != nil {
		t.Fatalf("defect recompile schedule invalid: %v", err)
	}
	for _, l := range warm.Schedule.Layers {
		for _, b := range l {
			for _, v := range b.Path {
				if v == dm.Vertices[0] {
					t.Fatalf("schedule routes through the dead vertex %d", v)
				}
			}
		}
	}
	sameLayerPrefix(t, parent.Schedule, warm.Schedule, warm.WarmCycles, "defects")

	// Healing the defect (empty replacement map) recompiles on the
	// pristine grid again and replays the whole parent.
	healed, err := hilight.Recompile(warm, hilight.Delta{Defects: &hilight.DefectMap{}})
	if err != nil {
		t.Fatalf("healed recompile: %v", err)
	}
	if err := healed.Schedule.Validate(healed.Circuit); err != nil {
		t.Fatalf("healed schedule invalid: %v", err)
	}
}

// TestRecompileUnchangedReplaysAll: the zero Delta replays the entire
// parent schedule and reports an empty diff.
func TestRecompileUnchangedReplaysAll(t *testing.T) {
	c := hilight.QFT(10)
	g := hilight.RectGrid(c.NumQubits)
	parent, err := hilight.Compile(c, g)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := hilight.Recompile(parent, hilight.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmCycles != len(parent.Schedule.Layers) {
		t.Fatalf("unchanged recompile replayed %d/%d layers", warm.WarmCycles, len(parent.Schedule.Layers))
	}
	if d := warm.Delta; d == nil || d.GateMoves != 0 || d.GateRepaths != 0 || len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Fatalf("unchanged recompile diff not empty: %+v", warm.Delta)
	}
	sameLayerPrefix(t, parent.Schedule, warm.Schedule, len(parent.Schedule.Layers), "identity")
}

// TestRecompileFallsBackCold: deltas the warm path cannot serve (a
// compacted parent, a changed first gate) still succeed — cold — and
// still report the diff.
func TestRecompileFallsBackCold(t *testing.T) {
	c := hilight.QFT(8)
	g := hilight.RectGrid(c.NumQubits)
	parent, err := hilight.Compile(c, g, hilight.WithCompaction())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := hilight.Recompile(parent, hilight.Delta{},
		hilight.WithCompaction()) // compaction rules warm replay out
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmCycles != 0 {
		t.Fatalf("compacted recompile claimed %d warm cycles", warm.WarmCycles)
	}
	if warm.Delta == nil {
		t.Fatal("cold-fallback recompile lost its Delta")
	}

	// An edit at gate 0 empties the prefix: cold fallback, valid result.
	head := hilight.Edit{Op: hilight.OpInsert, Index: 0, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: 1}}
	cold, err := hilight.Recompile(parent2(t, c, g), hilight.Delta{Edits: []hilight.Edit{head}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Schedule.Validate(cold.Circuit); err != nil {
		t.Fatalf("head-edit schedule invalid: %v", err)
	}
}

func parent2(t *testing.T, c *hilight.Circuit, g *hilight.Grid) *hilight.Result {
	t.Helper()
	res, err := hilight.Compile(c, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecompileFromHostileParent hands RecompileFrom parents that no
// compile produces, decoded from JSON as the service decodes a cached
// one, and an edited circuit that does not validate. Each recompile must
// return a schedule that validates, or an error, and none may panic. The
// grid is 3×1: qubit 0 sits on the middle tile, qubits 1 and 2 on either
// side, and the circuit is CX(0,1) then CX(0,2).
func TestRecompileFromHostileParent(t *testing.T) {
	c := hilight.NewCircuit("hostile", 3)
	c.Add2(hilight.CX, 0, 1)
	c.Add2(hilight.CX, 0, 2)
	// A 4-qubit child whose one gate names qubit 9; NewCircuit's Add2
	// would reject it, so the gate goes in by hand.
	invalid := hilight.NewCircuit("hostile", 4)
	invalid.Gates = append(invalid.Gates, hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: 9})
	const head = `{"version":1,"grid_w":3,"grid_h":1,"qubits":3,"initial":[1,0,2],"layers":`
	valid := head + `[[{"gate":0,"ctl":1,"tgt":0,"path":[1]}],[{"gate":1,"ctl":1,"tgt":2,"path":[6]}]]}`
	for _, tc := range []struct {
		name, parent string
		opts         []hilight.Option
		child        *hilight.Circuit // nil: c
	}{
		// Both braids leave qubit 0's tile, from different corners, on
		// disjoint paths.
		{"operand braids twice in one cycle",
			head + `[[{"gate":0,"ctl":1,"tgt":0,"path":[1]},{"gate":1,"ctl":1,"tgt":2,"path":[6]}]]}`, nil, nil},
		{"braid tile past the grid",
			head + `[[{"gate":0,"ctl":99,"tgt":0,"path":[1]}],[{"gate":1,"ctl":1,"tgt":2,"path":[6]}]]}`, nil, nil},
		{"endpoint not a tile corner",
			head + `[[{"gate":0,"ctl":1,"tgt":0,"path":[1,2]}],[{"gate":1,"ctl":1,"tgt":2,"path":[6]}]]}`, nil, nil},
		{"path through a vertex the new grid kills", valid,
			[]hilight.Option{hilight.WithDefects(&hilight.DefectMap{Vertices: []int{6}})}, nil},
		{"circuit wider than the layout",
			`{"version":1,"grid_w":3,"grid_h":1,"qubits":2,"initial":[1,0],"layers":[[{"gate":0,"ctl":1,"tgt":0,"path":[1]}]]}`, nil, nil},
		// The QCO rewrite of hilight reads every gate's qubits, so the
		// child must be validated before its working circuit is built.
		{"invalid child under hilight", valid, []hilight.Option{hilight.WithMethod("hilight")}, invalid},
		{"invalid child under hilight-map", valid, nil, invalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := hilight.DecodeScheduleJSON([]byte(tc.parent))
			if err != nil {
				t.Fatalf("decode parent: %v", err)
			}
			opts := append([]hilight.Option{hilight.WithMethod("hilight-map")}, tc.opts...)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RecompileFrom panicked: %v", r)
				}
			}()
			child := c
			if tc.child != nil {
				child = tc.child
			}
			res, err := hilight.RecompileFrom(c, parent, child, hilight.NewGrid(3, 1), opts...)
			if tc.child != nil && err == nil {
				t.Fatal("RecompileFrom accepted an invalid circuit")
			}
			if err != nil {
				t.Logf("RecompileFrom: %v", err)
				return
			}
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Errorf("RecompileFrom returned a schedule Validate rejects (%d warm cycles): %v", res.WarmCycles, err)
			}
			t.Logf("%d warm cycles", res.WarmCycles)
		})
	}
}

// TestRecompileTimeoutCoversColdFallback holds WithTimeout to the whole
// recompile: the warm attempt and the cold compile it falls back to share
// one deadline. The parent is QFT-8's hilight-map schedule with its third-
// and second-to-last layers swapped, so the warm attempt replays every
// layer before them and then fails. An observer sleeps per cycle, so a
// successful recompile sleeps through the replayed cycles and then every
// cold cycle. The deadline leaves room for either attempt alone, not for
// both, so the recompile must end canceled.
func TestRecompileTimeoutCoversColdFallback(t *testing.T) {
	c := hilight.QFT(8)
	g := hilight.RectGrid(c.NumQubits)
	parent, err := hilight.Compile(c, g, hilight.WithMethod("hilight-map"))
	if err != nil {
		t.Fatal(err)
	}
	n := len(parent.Schedule.Layers)
	swapped := *parent.Schedule
	swapped.Layers = slices.Clone(parent.Schedule.Layers)
	swapped.Layers[n-3], swapped.Layers[n-2] = swapped.Layers[n-2], swapped.Layers[n-3]

	const perCycle = 10 * time.Millisecond
	replayed := n - 3
	timeout := time.Duration(n)*perCycle + time.Duration(replayed)*perCycle/2
	start := time.Now()
	res, err := hilight.RecompileFrom(c, &swapped, c, g,
		hilight.WithMethod("hilight-map"),
		hilight.WithTimeout(timeout),
		hilight.WithObserver(func(hilight.CycleStats) { time.Sleep(perCycle) }))
	if !errors.Is(err, hilight.ErrCanceled) {
		t.Fatalf("recompile after %v under a %v timeout: err = %v (%d warm cycles), want ErrCanceled",
			time.Since(start), timeout, err, warmCycles(res))
	}
}

// warmCycles is res.WarmCycles, or -1 for a nil result.
func warmCycles(res *hilight.Result) int {
	if res == nil {
		return -1
	}
	return res.WarmCycles
}
