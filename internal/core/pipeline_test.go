package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hilight/internal/circuit"
	"hilight/internal/grid"
)

func passNames(p *Pipeline) []string {
	names := make([]string, len(p.Passes))
	for i, pass := range p.Passes {
		names[i] = pass.Name
	}
	return names
}

func TestPipelinePassAssembly(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		opt  RunOptions
		want string
	}{
		{"plain", MustMethod("hilight-map"), RunOptions{},
			"validate decompose-swaps capacity place route finalize-metrics"},
		{"qco", MustMethod("hilight-pg"), RunOptions{},
			"validate decompose-swaps qco capacity place route finalize-metrics"},
		{"compact", MustMethod("hilight-map"), RunOptions{Compact: true},
			"validate decompose-swaps capacity place route compact finalize-metrics"},
		{"adjuster", MustMethod("hilight-map"), RunOptions{Adjuster: &swapHappyAdjuster{}},
			"validate decompose-swaps capacity place route adjust finalize-metrics"},
		{"everything", MustMethod("hilight-pg"), RunOptions{Compact: true, Adjuster: &swapHappyAdjuster{}},
			"validate decompose-swaps qco capacity place route adjust compact finalize-metrics"},
	}
	for _, tc := range cases {
		p, err := NewPipeline(tc.sp, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(passNames(p), " "); got != tc.want {
			t.Errorf("%s passes:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// Every registered method must produce a fully-populated trace whose
// stage durations account for (at most) the measured runtime.
func TestTracePopulatedForAllMethods(t *testing.T) {
	c := qftCircuit(8)
	g := grid.Rect(8)
	for _, name := range MethodNames() {
		sp := MustMethod(name)
		if sp.Method != name {
			t.Errorf("MustMethod(%q).Method = %q", name, sp.Method)
		}
		res, err := Run(c, g, sp, RunOptions{Rng: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Method != name {
			t.Errorf("%s: Result.Method = %q", name, res.Method)
		}
		if len(res.Trace) < 6 {
			t.Fatalf("%s: trace has %d stages", name, len(res.Trace))
		}
		if first := res.Trace[0].Stage; first != "validate" {
			t.Errorf("%s: first stage %q", name, first)
		}
		if last := res.Trace[len(res.Trace)-1].Stage; last != "finalize-metrics" {
			t.Errorf("%s: last stage %q", name, last)
		}
		var sum time.Duration
		for _, st := range res.Trace {
			if st.Duration < 0 {
				t.Errorf("%s/%s: negative duration %v", name, st.Stage, st.Duration)
			}
			sum += st.Duration
		}
		if sum > res.Runtime {
			t.Errorf("%s: stage durations %v exceed runtime %v", name, sum, res.Runtime)
		}
	}
}

func traceStage(t *testing.T, res *Result, stage string) StageTrace {
	t.Helper()
	for _, st := range res.Trace {
		if st.Stage == stage {
			return st
		}
	}
	t.Fatalf("stage %q missing from trace %v", stage, res.Trace)
	return StageTrace{}
}

func TestTraceCountersMatchResult(t *testing.T) {
	c := qftCircuit(10)
	g := grid.Rect(10)
	res, err := Run(c, g, MustMethod("hilight-map"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cycles, ok := traceStage(t, res, "route").Counter("cycles"); !ok || cycles != int64(res.Latency) {
		t.Errorf("route cycles counter = %d (ok=%v), latency %d", cycles, ok, res.Latency)
	}
	fin := traceStage(t, res, "finalize-metrics")
	if v, ok := fin.Counter("latency"); !ok || v != int64(res.Latency) {
		t.Errorf("finalize latency counter = %d (ok=%v), want %d", v, ok, res.Latency)
	}
	if v, ok := fin.Counter("pathlen"); !ok || v != int64(res.PathLen) {
		t.Errorf("finalize pathlen counter = %d (ok=%v), want %d", v, ok, res.PathLen)
	}
	if _, ok := fin.Counter("no-such-counter"); ok {
		t.Error("Counter returned ok for an unrecorded name")
	}
}

// TestWorkingCircuitIsNeverTheInput compiles a SWAP-free circuit, and one
// with a SWAP, under a QCO method and a method without QCO. Under QCO a
// SWAP-free input reaches the qco pass without a copy of its own, so the
// working circuit must still be a fresh one, sharing no gate storage with
// the caller's, and decompose-swaps must still count the gates it hands on.
func TestWorkingCircuitIsNeverTheInput(t *testing.T) {
	swapped := qftCircuit(8)
	swapped.Add2(circuit.SWAP, 0, 7)
	for _, c := range []*circuit.Circuit{qftCircuit(8), swapped} {
		for _, method := range []string{"hilight", "hilight-map"} {
			res, err := Run(c, grid.Rect(c.NumQubits), MustMethod(method), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			w := res.Circuit
			if w == c || &w.Gates[0] == &c.Gates[0] {
				t.Errorf("%s, %d gates: the working circuit shares the input's storage", method, len(c.Gates))
			}
			want := len(c.Gates)
			if c.HasSWAP() {
				want += 2
			}
			if n, _ := traceStage(t, res, "decompose-swaps").Counter("gates"); n != int64(want) {
				t.Errorf("%s, %d gates: decompose-swaps counted %d gates, want %d", method, len(c.Gates), n, want)
			}
		}
	}
}

// The compact pass inside the pipeline must behave exactly like the
// standalone CompactSchedule: metrics describe the compacted schedule
// and latency never rises.
func TestPipelineCompactPass(t *testing.T) {
	c := qftCircuit(25)
	g := grid.Rect(25)
	sp := MustMethod("hilight-map")
	sp.Finder = "l-shape" // bubble-rich schedules leave compaction work
	plain, err := Run(c, g, sp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Run(c, g, sp, RunOptions{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Latency > plain.Latency {
		t.Errorf("compaction raised latency %d -> %d", plain.Latency, compacted.Latency)
	}
	if compacted.Latency != compacted.Schedule.Latency() {
		t.Errorf("Result.Latency %d != schedule latency %d (metrics not finalized after compact)",
			compacted.Latency, compacted.Schedule.Latency())
	}
	saved, ok := traceStage(t, compacted, "compact").Counter("cycles-saved")
	if !ok {
		t.Fatal("compact stage has no cycles-saved counter")
	}
	if int(saved) != plain.Latency-compacted.Latency {
		t.Errorf("cycles-saved = %d, want %d", saved, plain.Latency-compacted.Latency)
	}
}

func TestRunRejectsUnknownComponents(t *testing.T) {
	c := qftCircuit(4)
	g := grid.Square(4)
	for _, tc := range []struct {
		sp   Spec
		frag string
	}{
		{Spec{Placement: "nope"}, "unknown placement"},
		{Spec{Ordering: "nope"}, "unknown ordering"},
		{Spec{Finder: "nope"}, "unknown finder"},
		{Spec{Adjuster: "nope"}, "unknown adjuster"},
	} {
		_, err := Run(c, g, tc.sp, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("spec %+v: err = %v, want %q", tc.sp, err, tc.frag)
		}
	}
}

func TestMethodRegistry(t *testing.T) {
	names := MethodNames()
	if len(names) == 0 {
		t.Fatal("no registered methods")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MethodNames not sorted: %v", names)
		}
	}
	for _, want := range []string{"hilight", "hilight-map", "hilight-pg", "baseline"} {
		if _, ok := LookupMethod(want); !ok {
			t.Errorf("method %q not registered", want)
		}
	}
	if _, ok := LookupMethod("no-such-method"); ok {
		t.Error("LookupMethod found a method that was never registered")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterMethod did not panic")
		}
	}()
	RegisterMethod("hilight", Spec{})
}

func TestMustMethodPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMethod on an unknown name did not panic")
		}
	}()
	MustMethod("no-such-method")
}
