package hilight_test

import (
	"testing"

	"hilight"
)

// validateCircuits span the shapes Schedule.Validate walks: many layers
// of short paths (QFT-100), a long gate list (urf5_158's 92,500 gates),
// a wide circuit with one busy qubit (BV-200) and a shallow, wide one
// (BWT-126).
var validateCircuits = []string{"QFT-100", "urf5_158", "BV-200", "BWT-126"}

// BenchmarkValidate times Schedule.Validate of each validate circuit's
// hilight-map schedule against its working circuit, with allocations:
// allocs/op is the same on every circuit, since Validate sizes its
// arrays once and allocates nothing per layer or gate.
func BenchmarkValidate(b *testing.B) {
	for _, name := range validateCircuits {
		c, ok := hilight.Benchmark(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		res, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits), hilight.WithMethod("hilight-map"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := res.Schedule.Validate(res.Circuit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestValidateAllocationsConstant holds Schedule.Validate to a fixed
// number of allocations: the hilight-map schedules of QFT-16 (38 layers,
// 120 braids) and QFT-64 (287 layers, 2,016 braids) cost
// the same. A per-layer or per-gate allocation fails here.
func TestValidateAllocationsConstant(t *testing.T) {
	var allocs []float64
	for _, n := range []int{16, 64} {
		c := hilight.QFT(n)
		res, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits), hilight.WithMethod("hilight-map"))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("QFT-%d: %d layers, %d braids", n, res.Latency, res.Schedule.BraidCount())
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Validate allocates %v on QFT-16 and %v on QFT-64; want the same", allocs[0], allocs[1])
	}
}
