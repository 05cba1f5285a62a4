package core

import (
	"errors"
	"strings"
	"testing"

	"hilight/internal/bench"
	"hilight/internal/circuit"
	"hilight/internal/grid"
	"hilight/internal/obs"
	"hilight/internal/sched"
)

// parSpec is the anonymous speculative-step spec the tests drive.
func parSpec() Spec {
	return Spec{
		Placement: "hilight", Ordering: "proposed", Finder: "astar-closest",
		Speculative: true,
	}
}

// TestParallelRouteEquivalentToSequential proves schedule equivalence:
// the parallel pass may pick different (equally legal) paths and layer
// packings than the sequential Alg. 2 loop, but it must execute exactly
// the same two-qubit gate set under all of Validate's replay invariants,
// on the same initial layout.
func TestParallelRouteEquivalentToSequential(t *testing.T) {
	c := bench.QFT(16)
	g := grid.Rect(16)
	seq, err := Run(c, g, MustMethod("hilight-map"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(c, g, parSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Schedule.Validate(par.Circuit); err != nil {
		t.Fatalf("parallel schedule invalid: %v", err)
	}
	for q, tile := range seq.Schedule.Initial.QubitTile {
		if par.Schedule.Initial.QubitTile[q] != tile {
			t.Fatalf("parallel pass changed the initial layout: qubit %d on tile %d, want %d",
				q, par.Schedule.Initial.QubitTile[q], tile)
		}
	}
	gates := func(s *sched.Schedule) map[int]bool {
		m := map[int]bool{}
		for _, l := range s.Layers {
			for _, b := range l {
				if b.Gate >= 0 {
					m[b.Gate] = true
				}
			}
		}
		return m
	}
	sg, pg := gates(seq.Schedule), gates(par.Schedule)
	if len(sg) != len(pg) {
		t.Fatalf("gate sets differ: sequential %d, parallel %d", len(sg), len(pg))
	}
	for gate := range sg {
		if !pg[gate] {
			t.Fatalf("gate %d routed sequentially but missing from parallel schedule", gate)
		}
	}
}

// contentionFixture builds an 8x2 grid whose routing lattice is cut at
// vertex column x=4 except for the bottom-row vertex (4,2), plus four
// CX gates that all have to cross that one gap — the pathological
// all-braids-through-one-channel contention case. With full=true the gap
// is closed too, disconnecting the halves entirely.
func contentionFixture(t *testing.T, full bool) (*circuit.Circuit, *grid.Grid) {
	t.Helper()
	g := grid.New(8, 2)
	d := &grid.DefectMap{Vertices: []int{g.VertexID(4, 0), g.VertexID(4, 1)}}
	if full {
		d.Vertices = append(d.Vertices, g.VertexID(4, 2))
	}
	if err := g.ApplyDefects(d); err != nil {
		t.Fatal(err)
	}
	c := circuit.New("contention", 8)
	for q := 0; q < 4; q++ {
		c.Add2(circuit.CX, q, q+4)
	}
	return c, g
}

// contentionSpec places qubit q on tile q (left operands at x=0..3,
// right operands at x=4..7), so every braid crosses the x=4 cut, and
// routes with the speculative step or the sequential one.
func contentionSpec(speculative bool) Spec {
	sp := parSpec()
	sp.Placement = "identity"
	sp.Speculative = speculative
	return sp
}

// TestParallelRouteStarvationGuard fault-injects pathological contention
// and asserts the commit loop still makes progress: the first candidate
// in commit order with a speculated path always commits (it cannot
// conflict with an unchanged occupancy), so every cycle routes at least
// one braid and every gate eventually executes.
func TestParallelRouteStarvationGuard(t *testing.T) {
	c, g := contentionFixture(t, false)
	res, err := Run(c, g, contentionSpec(true), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("invalid schedule under contention: %v", err)
	}
	// One open vertex means one crossing braid per cycle: four gates need
	// four cycles, and each layer stays within the disjointness invariant
	// (re-proved by Validate above).
	if res.Latency != 4 {
		t.Errorf("latency = %d, want 4 (one crossing per cycle)", res.Latency)
	}
}

// TestParallelRouteUnroutableTaxonomy closes the gap entirely and checks
// the parallel pass reports the same typed ErrUnroutable, with the same
// reason wording, as the sequential router.
func TestParallelRouteUnroutableTaxonomy(t *testing.T) {
	c, g := contentionFixture(t, true)
	_, parErr := Run(c, g, contentionSpec(true), RunOptions{})
	_, seqErr := Run(c, g, contentionSpec(false), RunOptions{})
	for name, err := range map[string]error{"parallel": parErr, "sequential": seqErr} {
		var unroutable *ErrUnroutable
		if !errors.As(err, &unroutable) {
			t.Fatalf("%s: got %v, want ErrUnroutable", name, err)
		}
		if unroutable.Gate < 0 {
			t.Errorf("%s: ErrUnroutable does not identify the stuck gate", name)
		}
		if !strings.Contains(unroutable.Reason, "empty lattice") {
			t.Errorf("%s: reason %q lost the empty-lattice taxonomy", name, unroutable.Reason)
		}
	}
	if parErr.Error() != seqErr.Error() {
		t.Errorf("error taxonomy diverged:\n  parallel:   %v\n  sequential: %v", parErr, seqErr)
	}
}

// TestParallelRouteTraceAndMetricsReconcile checks the observability
// contract: the route-parallel stage's trace counters and the
// route/parallel/... registry metrics report the same engine, and the
// shared route/... totals match the trace exactly for a single compile.
func TestParallelRouteTraceAndMetricsReconcile(t *testing.T) {
	c := bench.QFT(16)
	g := grid.Rect(16)
	reg := obs.NewRegistry()
	res, err := Run(c, g, parSpec(), RunOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var stage *StageTrace
	for i := range res.Trace {
		if res.Trace[i].Stage == "route-parallel" {
			stage = &res.Trace[i]
		}
	}
	if stage == nil {
		t.Fatalf("no route-parallel stage in trace: %+v", res.Trace)
	}
	for trace, metric := range map[string]string{
		"conflicts":    "route/parallel/conflicts",
		"retries":      "route/parallel/retries",
		"stall-cycles": "route/parallel/stall-cycles",
		"braids":       "route/braids-routed",
		"cycles":       "route/cycles",
		"search-pops":  "route/search-pops",
		"searches":     "route/searches",
	} {
		want, ok := stage.Counter(trace)
		if !ok {
			t.Errorf("trace counter %q missing", trace)
			continue
		}
		if got := reg.Counter(metric).Value(); got != want {
			t.Errorf("metric %s = %d, trace %s = %d — not reconciled", metric, got, trace, want)
		}
	}
}

// TestParallelFallsBackForIncompatibleSpecs pins that specs with a
// layout adjuster or a non-A*-family finder silently keep the sequential
// route pass.
func TestParallelFallsBackForIncompatibleSpecs(t *testing.T) {
	cases := map[string]struct {
		sp  Spec
		opt RunOptions
	}{
		"adjuster": {sp: parSpec(), opt: RunOptions{Adjuster: &swapHappyAdjuster{}}},
		"finder":   {sp: Spec{Placement: "hilight", Finder: "l-shape", Speculative: true}},
	}
	for name, tc := range cases {
		p, err := NewPipeline(tc.sp, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, pass := range p.Passes {
			if pass.Name == "route-parallel" {
				t.Errorf("%s: incompatible spec selected the parallel route pass", name)
			}
		}
	}
	// And the compatible spec does select it.
	p, err := NewPipeline(parSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pass := range p.Passes {
		found = found || pass.Name == "route-parallel"
	}
	if !found {
		t.Error("compatible spec did not select the parallel route pass")
	}
}
