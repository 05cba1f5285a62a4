package core

// Benchmarks for the Alg. 2 routing loop. BenchmarkRouteCircuit drives
// the package-internal router with every piece of scratch state reused
// across iterations — the steady-state regime of batch compilation — and
// must report 0 allocs/op after the allocation-free rewrite, which
// TestRouteCircuitZeroAllocs asserts. BenchmarkCompileQFT{64,256}
// measure the full compile pipeline (placement + routing + metrics);
// the frozen BENCH_route.json snapshot at the repo root records their
// alloc counts against the pre-rewrite baseline.

import (
	"fmt"
	"math/rand"
	"testing"

	"hilight/internal/bench"
	"hilight/internal/grid"
	"hilight/internal/place"
)

// warmRouteQFT64 is BenchmarkRouteCircuit's setup: QFT-64 on its
// rectangular grid with the default (HiLight) configuration, a fixed
// pre-computed placement, and one warm-up route that sizes all per-grid,
// per-circuit and result scratch. It returns a call that routes the
// circuit again; in the steady state after the warm-up that call must
// be allocation-free.
func warmRouteQFT64(tb testing.TB) func() {
	c := bench.QFT(64).DecomposeSWAPs()
	g := grid.Rect(64)
	cfg, err := Spec{}.components(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	// The default configuration has no adjuster, so the router never
	// mutates the layout and one placement serves every iteration.
	layout := place.HiLight{}.Place(c, g)
	var rt router
	routeOnce := func() {
		if _, err := rt.route(c, g, layout, cfg); err != nil {
			tb.Fatal(err)
		}
	}
	routeOnce()
	return routeOnce
}

// BenchmarkRouteCircuit measures one full routing pass over QFT-64 with
// the default (HiLight) configuration and a fixed pre-computed placement.
func BenchmarkRouteCircuit(b *testing.B) {
	routeOnce := warmRouteQFT64(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeOnce()
	}
}

// TestRouteCircuitZeroAllocs pins BenchmarkRouteCircuit's 0 allocs/op:
// after the warm-up, routing QFT-64 again must not allocate, so a lost
// fast path fails go test instead of only moving a benchmark figure.
func TestRouteCircuitZeroAllocs(t *testing.T) {
	routeOnce := warmRouteQFT64(t)
	if allocs := testing.AllocsPerRun(3, routeOnce); allocs != 0 {
		t.Errorf("route QFT-64: %.1f allocs/op in steady state, want 0", allocs)
	}
}

// BenchmarkCompileQFT measures the full Map pipeline on QFT-64/QFT-256.
func BenchmarkCompileQFT(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("QFT%d", n), func(b *testing.B) {
			c := bench.QFT(n)
			g := grid.Rect(n)
			sp := MustMethod("hilight-map")
			if _, err := Run(c, g, sp, RunOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, g, sp, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileQFTParallel measures the speculative route step
// (hilight-map-parallel: windowed lookahead + component pruning), as in
// the frozen BENCH_route.json snapshot.
func BenchmarkCompileQFTParallel(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("QFT%d", n), func(b *testing.B) {
			c := bench.QFT(n)
			g := grid.Rect(n)
			sp := MustMethod("hilight-map-parallel")
			if _, err := Run(c, g, sp, RunOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, g, sp, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
