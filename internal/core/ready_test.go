package core_test

// The router keeps its ready set as a bitmask over control qubits that
// commits update. These tests hold that set, cycle by cycle, to the scan
// over every qubit it replaced (core.RouteCheckingReady), under a plain
// method, the AutoBraid adjuster whose inserted SWAPs move operands
// between cycles, the speculative step, and a warm start as a recompile
// runs it.

import (
	"fmt"
	"testing"

	_ "hilight/internal/autobraid" // registers autobraid-full
	"hilight/internal/bench"
	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/session"
)

// readyCircuits are the seeded circuits the ready-set oracle runs on.
func readyCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		bench.QFT(12),
		bench.RevLib("ready-a", 9, 300),
		bench.RevLib("ready-b", 20, 600),
		bench.Shor(30, 400),
	}
}

func TestReadySetMatchesScan(t *testing.T) {
	for _, method := range []string{"hilight-map", "autobraid-full", "hilight-map-parallel"} {
		sp := core.MustMethod(method)
		for _, c := range readyCircuits() {
			t.Run(fmt.Sprintf("%s/%s", method, c.Name), func(t *testing.T) {
				w := session.WorkingCircuit(c, sp.QCO)
				s, cycles, err := core.RouteCheckingReady(w, grid.Rect(c.NumQubits), sp, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cycles == 0 {
					t.Fatal("no cycle checked")
				}
				if sp.Adjuster != "" && s.InsertedBraids() == 0 {
					t.Error("the adjuster inserted no SWAP, so no operand moved")
				}
			})
		}
	}
}

// TestReadySetMatchesScanWarm warm-starts from a parent schedule after a
// gate three quarters in is removed, as RecompileFrom does, and checks
// the ready set the router rebuilds after the replay at every cycle that
// follows. hilight-map keeps program order, so the removal leaves both a
// replayed run and a suffix on every circuit.
func TestReadySetMatchesScanWarm(t *testing.T) {
	sp := core.MustMethod("hilight-map")
	for _, c := range readyCircuits() {
		t.Run(c.Name, func(t *testing.T) {
			g := grid.Rect(c.NumQubits)
			parent, err := core.Run(c, g, sp, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			edited, err := session.ApplyEdits(c, []session.Edit{{Op: session.OpRemove, Index: len(c.Gates) * 3 / 4}})
			if err != nil {
				t.Fatal(err)
			}
			pw, cw := session.WorkingCircuit(c, sp.QCO), session.WorkingCircuit(edited, sp.QCO)
			warm := &core.WarmStart{
				Initial: parent.Schedule.Initial, Layers: parent.Schedule.Layers,
				GatePrefix: session.CommonPrefixGates(pw, cw), Working: cw,
			}
			res, err := core.Run(edited, g, sp, core.RunOptions{Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			if res.WarmCycles == 0 || res.WarmCycles == len(parent.Schedule.Layers) {
				t.Fatalf("replaying %d of %d layers leaves no warm start with a suffix", res.WarmCycles, len(parent.Schedule.Layers))
			}
			_, cycles, err := core.RouteCheckingReady(cw, g, sp, warm)
			if err != nil {
				t.Fatal(err)
			}
			if cycles == 0 {
				t.Fatal("no cycle checked after the replay")
			}
		})
	}
}
