// Benchmarks beside the compile path: the post-passes (compaction,
// refinement), the physical lowering, and batch compilation throughput.
package hilight_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hilight"
	"hilight/internal/bench"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/lattice"
	"hilight/internal/place"
)

// BenchmarkCompaction measures the post-routing compaction pass and its
// latency recovery on a bubble-rich schedule (the two-bend L-shape
// finder defers under congestion; compaction re-routes with A*).
func BenchmarkCompaction(b *testing.B) {
	c := bench.QFT(36)
	g := grid.Rect(36)
	sp := core.MustMethod("hilight-map")
	sp.Finder = "l-shape"
	res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	var recovered int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compact := core.CompactSchedule(res.Schedule, res.Circuit, nil)
		recovered = res.Schedule.Latency() - compact.Latency()
	}
	b.ReportMetric(float64(recovered), "cycles-recovered")
}

// BenchmarkRefinement measures the local-search placement polish.
func BenchmarkRefinement(b *testing.B) {
	e, _ := bench.ByName("sqrt8_260")
	c := e.Build()
	g := grid.Rect(c.NumQubits)
	base := place.Random{Rng: rand.New(rand.NewSource(1))}.Place(c, g)
	before := place.Score(base, c, g)
	var after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refined := place.Refine(base, c, g, 0)
		after = place.Score(refined, c, g)
	}
	b.ReportMetric(float64(before-after), "score-improvement")
}

// BenchmarkLowering measures the defect-level physical expansion at
// several code distances.
func BenchmarkLowering(b *testing.B) {
	c := bench.QFT(25)
	res, err := core.Run(c, grid.Rect(25), core.MustMethod("hilight-map"), core.RunOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{3, 9, 15} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lattice.Lower(res.Schedule, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchCompile measures worker-pool throughput scaling.
func BenchmarkBatchCompile(b *testing.B) {
	var jobs []hilight.BatchJob
	for n := 6; n <= 20; n += 2 {
		jobs = append(jobs, hilight.BatchJob{Circuit: bench.QFT(n)})
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range hilight.CompileAll(jobs, workers, hilight.WithSeed(2)) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
