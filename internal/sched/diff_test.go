package sched

import (
	"bytes"
	"strings"
	"testing"

	"hilight/internal/route"
)

func TestCompareIdenticalSchedules(t *testing.T) {
	_, _, s := buildFixture(t)
	d := Compare(s, s)
	if d.GateMoves != 0 || d.GateRepaths != 0 || len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Errorf("self-diff not clean: %+v", d)
	}
	if d.LatencyA != d.LatencyB || d.PathLenA != d.PathLenB {
		t.Error("metrics differ on self-diff")
	}
}

func TestCompareDetectsMovesAndRepaths(t *testing.T) {
	g, _, a := buildFixture(t)
	// b: gate 1 moved to its own later cycle; gate 0 re-routed through a
	// different corner of the same tiles in the same cycle.
	b := &Schedule{
		Grid:    g,
		Initial: a.Initial,
		Layers: []Layer{
			{{Gate: 0, CtlTile: 0, TgtTile: 1, Path: route.Path{g.VertexID(1, 1)}}},
			{{Gate: 1, CtlTile: 2, TgtTile: 3, Path: route.Path{g.VertexID(1, 2)}}},
		},
	}
	d := Compare(a, b)
	if d.GateMoves != 1 {
		t.Errorf("moves = %d, want 1 (gate 1)", d.GateMoves)
	}
	if d.GateRepaths != 1 {
		t.Errorf("repaths = %d, want 1 (gate 0)", d.GateRepaths)
	}
	if d.LatencyB != 2 {
		t.Errorf("latency B = %d", d.LatencyB)
	}
}

func TestCompareCoverageMismatch(t *testing.T) {
	g, _, a := buildFixture(t)
	b := &Schedule{Grid: g, Initial: a.Initial, Layers: []Layer{
		{{Gate: 0, CtlTile: 0, TgtTile: 1, Path: route.Path{g.VertexID(1, 0)}}},
	}}
	d := Compare(a, b)
	if len(d.OnlyA) != 1 || d.OnlyA[0] != 1 {
		t.Errorf("OnlyA = %v, want [1]", d.OnlyA)
	}
	var buf bytes.Buffer
	d.Print(&buf, "a", "b")
	if !strings.Contains(buf.String(), "WARNING") {
		t.Error("coverage warning missing")
	}
}

func TestDiffPrintFormat(t *testing.T) {
	_, _, s := buildFixture(t)
	var buf bytes.Buffer
	Compare(s, s).Print(&buf, "before", "after")
	out := buf.String()
	for _, want := range []string{"latency", "path length", "before", "after", "rescheduled"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareSharedAndCopiedLayers compares a schedule with one that
// shares its layer (a warm recompile's replayed prefix) and with a
// same-length copy of it that re-routes one braid: the shared layer is
// equal without a walk, the copy is walked and its repath counted.
func TestCompareSharedAndCopiedLayers(t *testing.T) {
	g, _, a := buildFixture(t)
	shared := &Schedule{Grid: g, Initial: a.Initial, Layers: []Layer{a.Layers[0]}}
	if d := Compare(a, shared); d.GateMoves != 0 || d.GateRepaths != 0 {
		t.Errorf("shared layer: moves %d, repaths %d, want 0, 0", d.GateMoves, d.GateRepaths)
	}
	copied := append(Layer(nil), a.Layers[0]...)
	copied[0].Path = route.Path{g.VertexID(1, 1)}
	repathed := &Schedule{Grid: g, Initial: a.Initial, Layers: []Layer{copied}}
	if d := Compare(a, repathed); d.GateMoves != 0 || d.GateRepaths != 1 {
		t.Errorf("copied layer: moves %d, repaths %d, want 0, 1", d.GateMoves, d.GateRepaths)
	}
}
