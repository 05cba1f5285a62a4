package hilight_test

import (
	"testing"

	"hilight"
)

// sessionBenchSubset is the Table 1 subset the session section of
// BENCH_route.json recorded: a small, a mid-size and two larger circuits,
// so the warm/cold ratio is visible across prefix lengths.
var sessionBenchSubset = []string{"rd32_270", "sqrt8_260", "urf2_277", "QFT-16"}

// sessionBenchParent compiles the parent once; the benchmark loop then
// measures only the incremental path.
func sessionBenchParent(b *testing.B, name string) (*hilight.Result, hilight.Delta) {
	b.Helper()
	c, ok := hilight.Benchmark(name)
	if !ok {
		b.Fatalf("benchmark %q not registered", name)
	}
	parent, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits))
	if err != nil {
		b.Fatalf("parent compile: %v", err)
	}
	edit := hilight.Edit{Op: hilight.OpAppend, Gate: hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: c.NumQubits - 1}}
	return parent, hilight.Delta{Edits: []hilight.Edit{edit}}
}

// BenchmarkRecompileEdit measures a single-gate session recompile: the
// parent placement and untouched layer prefix replay verbatim, only the
// suffix re-routes. Compare against BenchmarkRecompileEditCold below —
// the session section of BENCH_route.json recorded the ratio at ≥ 3×.
func BenchmarkRecompileEdit(b *testing.B) {
	for _, name := range sessionBenchSubset {
		parent, delta := sessionBenchParent(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := hilight.Recompile(parent, delta)
				if err != nil {
					b.Fatal(err)
				}
				if res.WarmCycles == 0 {
					b.Fatal("recompile fell back cold; the benchmark would measure the wrong path")
				}
			}
		})
	}
}

// BenchmarkRecompileEditCold is the cold baseline: the same edited
// circuit compiled from scratch.
func BenchmarkRecompileEditCold(b *testing.B) {
	for _, name := range sessionBenchSubset {
		parent, delta := sessionBenchParent(b, name)
		warm, err := hilight.Recompile(parent, delta)
		if err != nil {
			b.Fatal(err)
		}
		g := hilight.RectGrid(warm.Input.NumQubits)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hilight.Compile(warm.Input, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
