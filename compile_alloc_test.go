package hilight_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"
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
// compile allocates about twice its result: the decomposed and the
// optimized circuit, the router's stores and the placement's sparse
// circGraph. When the transforms and stores regrew from empty, the same
// compiles allocated 8.6–11.5× their results; a pass that starts to
// regrow again fails here, not first in a benchmark run.
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

// wideStar returns an n-qubit circuit of four CX gates, from qubit 0 to
// qubits 1–4, with every other qubit idle: a star no pattern matches, so
// HiLight places it by proximity, and a circuit far wider than its gates.
func wideStar(n int) *hilight.Circuit {
	c := hilight.NewCircuit(fmt.Sprintf("star4-%d", n), n)
	for q := 1; q <= 4; q++ {
		c.Add2(hilight.CX, 0, q)
	}
	return c
}

// TestWideCircuitCompiles compiles wideStar at 4,096 and 40,000 qubits
// under hilight-map to a valid schedule. Placement's memory and work
// follow the circuit and the grid: an n² circGraph would take 134 MB at
// 4,096 qubits and ask for 12.8 GB at 40,000, which killed the process,
// and a scan of every tile per placed qubit would take 1.6·10⁹ steps.
// The bound on time holds under -race with room to spare.
func TestWideCircuitCompiles(t *testing.T) {
	for _, n := range []int{4096, 40000} {
		c := wideStar(n)
		start := time.Now()
		res, err := hilight.Compile(c, hilight.RectGrid(n), hilight.WithMethod("hilight-map"))
		if err != nil {
			t.Fatalf("%d qubits: %v", n, err)
		}
		took := time.Since(start)
		t.Logf("%d qubits: compiled in %v", n, took)
		if err := res.Schedule.Validate(c); err != nil {
			t.Fatalf("%d qubits: %v", n, err)
		}
		if took > 30*time.Second {
			t.Errorf("%d qubits: compile took %v, want under 30s", n, took)
		}
	}
}
