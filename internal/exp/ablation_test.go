package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunThresholdSweepShape(t *testing.T) {
	rep, err := RunThresholdSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("points = %d", len(rep.Rows))
	}
	// Reference row (threshold 4) is 1.0 by construction.
	ref := rep.Rows[2]
	if ref.Name != "4" || ref.Latency != 1 || ref.Runtime != 1 {
		t.Errorf("reference row wrong: %+v", ref)
	}
	// Never ordering must not improve latency more than marginally: the
	// ordering exists because it helps.
	never := rep.Rows[len(rep.Rows)-1]
	if never.Latency < 0.97 {
		t.Errorf("never-order latency %.3f: ordering appears useless", never.Latency)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "threshold") {
		t.Error("print output malformed")
	}
}

func TestRunBoundsShape(t *testing.T) {
	rep, err := RunBounds(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rep.Rows {
		if row.Latency < row.Depth {
			t.Errorf("%s: latency %d beat the dependency bound %d", row.Name, row.Latency, row.Depth)
		}
		if row.QCODpth > row.Depth {
			t.Errorf("%s: QCO deepened the circuit (%d > %d)", row.Name, row.QCODpth, row.Depth)
		}
		if row.Gap < 1 {
			t.Errorf("%s: gap %.3f below 1", row.Name, row.Gap)
		}
	}
	if rep.MeanGap < 1 {
		t.Errorf("geomean gap %.3f below 1", rep.MeanGap)
	}
	// Serialized circuits (BV/CC) must sit exactly on the bound.
	for _, row := range rep.Rows {
		if strings.HasPrefix(row.Name, "BV") || strings.HasPrefix(row.Name, "CC") {
			if row.Gap != 1 {
				t.Errorf("%s: serialized benchmark off the bound: %.3f", row.Name, row.Gap)
			}
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "geomean gap") {
		t.Error("print output malformed")
	}
}

func TestRunModesShape(t *testing.T) {
	rep, err := RunModes(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rep.Rows {
		if row.SurgeryTiles <= row.BraidTiles {
			t.Errorf("%s: surgery board not larger (%d vs %d)", row.Name, row.SurgeryTiles, row.BraidTiles)
		}
		if row.SurgeryLatency%2 != 0 {
			t.Errorf("%s: surgery latency %d not a multiple of the op duration", row.Name, row.SurgeryLatency)
		}
	}
	if rep.MeanTileRatio < 1.5 {
		t.Errorf("tile ratio %.2f implausibly low", rep.MeanTileRatio)
	}
	if rep.MeanLatencyRatio < 1 {
		t.Errorf("surgery latency ratio %.2f below 1: braiding should win on latency", rep.MeanLatencyRatio)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("print output malformed")
	}
}

func TestRunFinderAblationShape(t *testing.T) {
	rep, err := RunFinderAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("arms = %d", len(rep.Rows))
	}
	astar, ok := rep.Arm("astar-closest")
	if !ok || astar.Latency != 1 || astar.Runtime != 1 {
		t.Errorf("astar not the reference: %+v", astar)
	}
	full, _ := rep.Arm("full-16")
	if full.Runtime < 1 {
		t.Errorf("full-16 runtime %.3f should exceed single A*", full.Runtime)
	}
	if full.Latency > 1.02 {
		t.Errorf("full-16 latency %.3f should be at least as good as A*", full.Latency)
	}
	lshape, _ := rep.Arm("l-shape")
	if lshape.Latency < 0.999 {
		t.Errorf("l-shape latency %.3f should not beat A* (it defers on blocks)", lshape.Latency)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "l-shape") {
		t.Error("print output malformed")
	}
}
