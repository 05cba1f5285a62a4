package hilight_test

import (
	"runtime"
	"testing"
	"unsafe"

	"hilight"
)

// coldCompileCircuits are the cold-compile workloads: the largest RevLib
// block, the largest QFT and the largest application that hlbench's
// table1-compile runs. Between them they stress each sized store: gate
// slices (urf5_158's 92,500 gates), braid paths (QFT-200's detours) and
// layers (Shor-471's 1,600–2,100 cycles).
var coldCompileCircuits = []string{"urf5_158", "QFT-200", "Shor-471"}

// BenchmarkColdCompile times a cold hilight.Compile, every transform and
// store built from empty, of each cold-compile circuit under hilight and
// hilight-map. Run it with -benchmem: B/op and allocs/op are the figures
// TestColdCompileAllocationBudget bounds.
func BenchmarkColdCompile(b *testing.B) {
	for _, name := range coldCompileCircuits {
		c, ok := hilight.Benchmark(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		for _, method := range []string{"hilight", "hilight-map"} {
			b.Run(name+"/"+method, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := hilight.Compile(c, g, hilight.WithMethod(method)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// resultBytes is what a Result holds of a compile's output: the working
// circuit's gates, the schedule's braids and their path vertices.
func resultBytes(res *hilight.Result) uint64 {
	s := res.Schedule
	return uint64(len(res.Circuit.Gates))*uint64(unsafe.Sizeof(hilight.Gate{})) +
		uint64(s.BraidCount())*uint64(unsafe.Sizeof(hilight.Braid{})) +
		uint64(s.TotalPathLength())*uint64(unsafe.Sizeof(int(0)))
}

// TestColdCompileAllocationBudget holds a cold hilight.Compile under
// hilight to a fixed multiple of the bytes its Result holds. Each pass
// sizes its output once (DESIGN.md, "Performance architecture"), so the
// compile allocates 2.1–2.6× its result: the decomposed and the optimized
// circuit, the router's stores and the placement's n² circGraph. When
// the transforms and stores regrew from empty, the same compiles
// allocated 8.6–11.5× their results; a pass that starts to regrow again
// fails here, not first in a benchmark run.
func TestColdCompileAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three large Table 1 circuits")
	}
	const budget = 3
	for _, name := range coldCompileCircuits {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := hilight.Compile(c, g, hilight.WithMethod("hilight"))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alloc, held := after.TotalAlloc-before.TotalAlloc, resultBytes(res)
		t.Logf("%s: allocated %.2f MB, result holds %.2f MB (%.2f×)", name, float64(alloc)/1e6, float64(held)/1e6, float64(alloc)/float64(held))
		if alloc > budget*held {
			t.Errorf("%s: cold compile allocated %d bytes, %.2f× the %d its result holds; budget %d×",
				name, alloc, float64(alloc)/float64(held), held, budget)
		}
	}
}
