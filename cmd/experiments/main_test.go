package main

import (
	"strings"
	"testing"

	"hilight/internal/exp"
	"hilight/internal/obs"
)

// An unknown name fails, and the error lists every experiment of the
// table, each once.
func TestRunOneUnknown(t *testing.T) {
	err := runOne("nope", exp.Options{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	seen := map[string]bool{}
	for _, name := range names() {
		if seen[name] {
			t.Errorf("experiment %q listed twice", name)
		}
		seen[name] = true
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
	if len(seen) != 10 {
		t.Errorf("%d experiments, want 10", len(seen))
	}
}

func TestRunOneSmallExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	o := exp.Options{Scale: exp.ScaleSmall, Trials: 2, Seed: 3}
	for _, name := range []string{"fig8c", "threshold", "finders"} {
		if err := runOne(name, o); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// With a registry attached, an experiment's compiles aggregate into the
// pipeline/... metric families.
func TestRunOneFeedsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	o := exp.Options{Scale: exp.ScaleSmall, Trials: 1, Seed: 3, Metrics: obs.NewRegistry()}
	if err := runOne("bounds", o); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	runs, ok := snap.Counter("pipeline/route/runs")
	if !ok || runs <= 0 {
		t.Fatalf("pipeline/route/runs = %d (ok=%v), want > 0", runs, ok)
	}
	var buf strings.Builder
	if err := snap.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pipeline_route_runs_total") {
		t.Errorf("exposition missing route runs:\n%s", buf.String())
	}
}
