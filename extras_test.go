package hilight_test

import (
	"strings"
	"testing"

	"hilight"
)

func TestRenderScheduleThroughAPI(t *testing.T) {
	c := hilight.GHZ(6)
	res, err := hilight.Compile(c, hilight.RectGrid(6))
	if err != nil {
		t.Fatal(err)
	}
	out := hilight.RenderSchedule(res.Schedule, 2)
	if !strings.Contains(out, "cycle 0") {
		t.Errorf("render missing cycles:\n%s", out)
	}
	layout := hilight.RenderLayout(res.Grid, res.Schedule.Initial)
	if !strings.Contains(layout, "0") {
		t.Error("layout render missing qubits")
	}
}

func TestObserverThroughAPI(t *testing.T) {
	c := hilight.QFT(8)
	cycles := 0
	res, err := hilight.Compile(c, hilight.RectGrid(8),
		hilight.WithObserver(func(s hilight.CycleStats) { cycles++ }))
	if err != nil {
		t.Fatal(err)
	}
	if cycles != res.Latency {
		t.Errorf("observer saw %d cycles, latency %d", cycles, res.Latency)
	}
}
