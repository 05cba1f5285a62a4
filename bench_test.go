// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each BenchmarkTable1/BenchmarkFig* target measures
// the mapping work behind one reported artifact; run with
//
//	go test -bench=. -benchmem
//
// Per-metric custom results: latency (cycles) and resutil are reported
// via b.ReportMetric so the shape of the paper's numbers shows up next to
// the runtime.
package hilight_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hilight"
	_ "hilight/internal/autobraid" // registers the autobraid-sp/-full method specs

	"hilight/internal/bench"
	"hilight/internal/core"
	"hilight/internal/exp"
	"hilight/internal/grid"
	"hilight/internal/order"
	"hilight/internal/place"
	"hilight/internal/route"
)

// table1Selection keeps the per-row benchmark affordable: the paper's
// deterministic small rows plus one representative of each family.
var table1Selection = []string{
	"4gt11_82", "4gt5_75", "rd32_270", "sqrt8_260", "squar5_261",
	"QFT-10", "QFT-16", "QFT-100",
	"BV-10", "BV-100",
	"CC-11", "CC-100",
	"Ising-10", "Ising-500",
	"BWT-126", "QAOA-100",
}

func table1Frameworks() []string {
	return []string{"autobraid-sp", "autobraid-full", "hilight-map"}
}

// BenchmarkTable1 regenerates Table 1 rows: every selected benchmark
// mapped by the three frameworks on the M×(M−1) grid.
func BenchmarkTable1(b *testing.B) {
	for _, name := range table1Selection {
		e, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		c := e.Build()
		g := grid.Rect(e.N)
		for _, fw := range table1Frameworks() {
			sp := core.MustMethod(fw)
			b.Run(fmt.Sprintf("%s/%s", name, fw), func(b *testing.B) {
				var lastLatency int
				var lastUtil float64
				for i := 0; i < b.N; i++ {
					res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
					if err != nil {
						b.Fatal(err)
					}
					lastLatency = res.Latency
					lastUtil = res.ResUtil
				}
				b.ReportMetric(float64(lastLatency), "latency")
				b.ReportMetric(lastUtil, "resutil")
			})
		}
	}
}

// BenchmarkFig8aPlacement regenerates Fig. 8a: the five initial-placement
// methods with routing held fixed.
func BenchmarkFig8aPlacement(b *testing.B) {
	methods := map[string]core.Spec{
		"identity": {Placement: "identity"},
		"random":   {Placement: "random"},
		"gm":       {Placement: "gm"},
		"gmwp":     {Placement: "gmwp"},
		"proposed": {Placement: "hilight"},
	}
	for _, name := range []string{"sqrt8_260", "QFT-100", "Ising-500"} {
		e, _ := bench.ByName(name)
		c := e.Build()
		g := grid.Rect(e.N)
		for m, sp := range methods {
			b.Run(fmt.Sprintf("%s/%s", name, m), func(b *testing.B) {
				var latency int
				for i := 0; i < b.N; i++ {
					res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
					if err != nil {
						b.Fatal(err)
					}
					latency = res.Latency
				}
				b.ReportMetric(float64(latency), "latency")
			})
		}
	}
}

// BenchmarkFig8bOrdering regenerates Fig. 8b: the five gate-ordering
// strategies under the proposed placement and path-finder.
func BenchmarkFig8bOrdering(b *testing.B) {
	strategies := map[string]core.Spec{
		"random":     {Ordering: "random"},
		"ascending":  {Ordering: "ascending"},
		"descending": {Ordering: "descending"},
		"llg":        {Ordering: "llg"},
		"proposed":   {Ordering: "proposed"},
	}
	for _, name := range []string{"QFT-100", "QAOA-100"} {
		e, _ := bench.ByName(name)
		c := e.Build()
		g := grid.Rect(e.N)
		for s, sp := range strategies {
			b.Run(fmt.Sprintf("%s/%s", name, s), func(b *testing.B) {
				var latency int
				for i := 0; i < b.N; i++ {
					res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
					if err != nil {
						b.Fatal(err)
					}
					latency = res.Latency
				}
				b.ReportMetric(float64(latency), "latency")
			})
		}
	}
}

// BenchmarkFig8cAblation regenerates Fig. 8c: the six mapping-step
// combinations on a representative benchmark.
func BenchmarkFig8cAblation(b *testing.B) {
	e, _ := bench.ByName("QFT-100")
	c := e.Build()
	g := grid.Rect(e.N)
	rows := map[string]core.Spec{
		"identity+ours+ours": {Placement: "identity"},
		"gm+ours+ours":       {Placement: "gm"},
		"prox+ours+ours":     {Placement: "proximity"},
		"full-proposed":      core.MustMethod("hilight-map"),
		"no-fast-braiding":   {Finder: "full-16"},
		"llg-ordering":       {Ordering: "llg"},
	}
	for name, sp := range rows {
		b.Run(name, func(b *testing.B) {
			var latency int
			for i := 0; i < b.N; i++ {
				res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency")
		})
	}
}

// BenchmarkFig9Scalability regenerates Fig. 9: the four methods across
// increasing QFT sizes (runtime scaling is the figure's y-axis).
func BenchmarkFig9Scalability(b *testing.B) {
	for _, n := range []int{10, 16, 50, 100} {
		c := bench.QFT(n)
		g := grid.Rect(n)
		for _, method := range exp.Fig9Methods {
			method := method
			b.Run(fmt.Sprintf("QFT-%d/%s", n, method), func(b *testing.B) {
				sp := core.MustMethod(method)
				for i := 0; i < b.N; i++ {
					if _, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10Levels regenerates Fig. 10: program- and hardware-level
// variants against hilight-map.
func BenchmarkFig10Levels(b *testing.B) {
	e, _ := bench.ByName("sqrt8_260")
	c := e.Build()
	arms := map[string]struct {
		rect bool
		sp   core.Spec
	}{
		"autobraid-full": {false, core.MustMethod("autobraid-full")},
		"hilight-map":    {false, core.MustMethod("hilight-map")},
		"hilight-pg":     {false, core.MustMethod("hilight-pg")},
		"hilight-hw":     {true, core.MustMethod("hilight-map")},
		"hilight-full":   {true, core.MustMethod("hilight-pg")},
	}
	for name, arm := range arms {
		g := grid.Square(e.N)
		if arm.rect {
			g = grid.Rect(e.N)
		}
		b.Run(name, func(b *testing.B) {
			var latency int
			var util float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(c, g, arm.sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
				if err != nil {
					b.Fatal(err)
				}
				latency, util = res.Latency, res.ResUtil
			}
			b.ReportMetric(float64(latency), "latency")
			b.ReportMetric(util, "resutil")
		})
	}
}

// BenchmarkPathFinders isolates the three path-finders on one search
// (the ablation DESIGN.md calls out: single A* vs 16-pair vs stack DFS).
func BenchmarkPathFinders(b *testing.B) {
	g := grid.New(24, 24)
	finders := map[string]route.Finder{
		"astar-closest": &route.AStar{},
		"full-16":       &route.Full16{},
		"stack-dfs":     &route.StackDFS{},
	}
	for name, f := range finders {
		b.Run(name, func(b *testing.B) {
			occ := route.NewOccupancy(g)
			var buf route.Path
			for i := 0; i < b.N; i++ {
				p, ok := f.Find(g, occ, 0, g.Tiles()-1, buf[:0])
				if !ok {
					b.Fatal("no path on empty grid")
				}
				buf = p
			}
		})
	}
}

// BenchmarkOrderingStrategies isolates gate-ordering cost on a large
// ready set — the recurrent-graph LLG cost the paper measures.
func BenchmarkOrderingStrategies(b *testing.B) {
	g := grid.New(20, 20)
	rng := rand.New(rand.NewSource(1))
	ready := make([]order.Ready, 200)
	for i := range ready {
		ready[i] = order.Ready{Gate: i, CtlTile: rng.Intn(g.Tiles()), TgtTile: rng.Intn(g.Tiles())}
	}
	strategies := map[string]order.Strategy{
		"proposed": order.Proposed{},
		"llg":      order.LLG{},
	}
	for name, s := range strategies {
		b.Run(name, func(b *testing.B) {
			buf := make([]order.Ready, len(ready))
			for i := 0; i < b.N; i++ {
				copy(buf, ready)
				s.Order(buf, g)
			}
		})
	}
}

// BenchmarkPlacementMethods times initial placement, with allocations,
// where it costs: QFT-100, where Pattern picks the random layout; the
// 1,000-qubit Ising chain, where it picks the linear one; CC-300,
// Shor-471 and the 4,096-qubit star of four CX, where it falls back to
// Proximity; against GM's exhaustive embedding. Every method builds its
// circGraph, a sparse graph whose size follows the circuit.
func BenchmarkPlacementMethods(b *testing.B) {
	circuits := []*hilight.Circuit{bench.QFT(100), wideStar(4096)}
	for _, name := range []string{"Ising-1000", "CC-300", "Shor-471"} {
		c, ok := hilight.Benchmark(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		circuits = append(circuits, c)
	}
	for _, c := range circuits {
		g := grid.Rect(c.NumQubits)
		for _, m := range []place.Method{
			place.Proximity{},
			place.GM{Rng: rand.New(rand.NewSource(1))},
			place.Pattern{Rng: rand.New(rand.NewSource(1))},
		} {
			b.Run(c.Name+"/"+m.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Place(c, g)
				}
			})
		}
	}
}

// BenchmarkQCO isolates the program-level optimization rewrite.
func BenchmarkQCO(b *testing.B) {
	c := bench.QFT(100)
	b.Run("qft-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hilight.OptimizeProgram(c)
		}
	})
	e, _ := bench.ByName("sqrt8_260")
	r := e.Build()
	b.Run("sqrt8_260", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hilight.OptimizeProgram(r)
		}
	})
}
