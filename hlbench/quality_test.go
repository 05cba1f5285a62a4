package main

import (
	"math"
	"testing"

	"hilight/internal/exp"
)

// TestDepthGapMatchesRunBounds checks that the benchmark's depth gap for
// hilight-map is the "Optimality bounds" method of EXPERIMENTS.md: on the
// same circuits and seed, every row and the geomean equal exp.RunBounds.
func TestDepthGapMatchesRunBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the small Table 1 set")
	}
	const seed = 3
	rep, err := exp.RunBounds(exp.Options{Scale: exp.ScaleSmall, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	items, err := table1Items(smallScaleGates, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(rep.Rows) {
		t.Fatalf("%d benchmark items, RunBounds has %d rows", len(items), len(rep.Rows))
	}
	var gaps []float64
	for i := range items {
		it, row := &items[i], rep.Rows[i]
		if it.name != row.Name {
			t.Fatalf("item %d is %s, RunBounds row is %s", i, it.name, row.Name)
		}
		res, err := compileItem(it, "hilight-map", seed, nil)
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		if it.depth != row.Depth || res.Latency != row.Latency {
			t.Errorf("%s: depth %d latency %d, RunBounds has %d and %d", it.name, it.depth, res.Latency, row.Depth, row.Latency)
		}
		gaps = append(gaps, gapOf(res.Latency, it.depth))
	}
	if got := geomean(gaps); math.Abs(got-rep.MeanGap) > 1e-12 {
		t.Errorf("depth gap geomean %.15f, RunBounds MeanGap %.15f", got, rep.MeanGap)
	}
}

// smallScaleGates is exp.ScaleSmall's gate budget.
const smallScaleGates = 2500
