package hilight_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"hilight"
	"hilight/internal/session"
)

// sharingChain is the delta sequence TestRecompileChainsKeepAncestors
// applies, each to the previous step's result: appends, an insert and a
// removal mid-circuit, and a dead vertex on a mid-schedule braid. Most
// steps replay some of their parent's layers: an append replays all of
// them, which the child then shares with its parent and with every
// ancestor those layers came from, and the other edits a shorter run,
// which the child copies.
var sharingChain = []string{"append", "append", "insert-mid", "append", "remove-mid", "dead-mid", "append", "none"}

// TestRecompileChainsKeepAncestors runs chains of warm recompiles, each
// result the next one's parent, through Recompile and through
// RecompileFrom under hilight-map and hilight. A warm result that
// replays all of its parent shares its layers and paths, so after every
// step each ancestor's binary encoding must equal its encoding from when
// it was made, and every result must validate against its working
// circuit.
func TestRecompileChainsKeepAncestors(t *testing.T) {
	deltas := map[string]recompileDelta{}
	for _, d := range recompileDeltas {
		deltas[d.name] = d
	}
	for _, name := range []string{"rd32_270", "QFT-10", "Ising-13", "QFT-16", "sqrt8_260"} {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		for _, method := range []string{"hilight-map", "hilight"} {
			for _, via := range []string{"Recompile", "RecompileFrom"} {
				root, err := hilight.Compile(c, g, hilight.WithMethod(method))
				if err != nil {
					t.Fatalf("%s/%s: %v", name, method, err)
				}
				chain := []*hilight.Result{root}
				encodings := [][]byte{encodeSchedule(t, root.Schedule)}
				var defects *hilight.DefectMap // the RecompileFrom chain's current map
				shared, copied := 0, 0         // steps that replayed all, and part, of their parent
				for step, dn := range sharingChain {
					prev := chain[len(chain)-1]
					delta := deltas[dn].delta(prev)
					var res *hilight.Result
					if via == "Recompile" {
						res, err = hilight.Recompile(prev, delta)
					} else {
						edited, aerr := session.ApplyEdits(prev.Input, delta.Edits)
						if aerr != nil {
							t.Fatalf("%s/%s/%s step %d: %v", name, method, via, step, aerr)
						}
						if delta.Defects != nil {
							defects = delta.Defects
						}
						opts := []hilight.Option{hilight.WithMethod(method)}
						if defects != nil {
							opts = append(opts, hilight.WithDefects(defects))
						}
						res, err = hilight.RecompileFrom(prev.Input, prev.Schedule, edited, g, opts...)
					}
					if err != nil {
						t.Fatalf("%s/%s/%s step %d (%s): %v", name, method, via, step, dn, err)
					}
					if err := res.Schedule.Validate(res.Circuit); err != nil {
						t.Fatalf("%s/%s/%s step %d (%s): invalid schedule: %v", name, method, via, step, dn, err)
					}
					switch {
					case res.WarmCycles == len(prev.Schedule.Layers):
						shared++
					case res.WarmCycles > 0:
						copied++
					}
					chain = append(chain, res)
					encodings = append(encodings, encodeSchedule(t, res.Schedule))
					for i, anc := range chain[:len(chain)-1] {
						if !bytes.Equal(encodeSchedule(t, anc.Schedule), encodings[i]) {
							t.Fatalf("%s/%s/%s: step %d (%s) changed the schedule of generation %d", name, method, via, step, dn, i)
						}
					}
				}
				t.Logf("%s/%s/%s: %d steps shared their parent, %d copied part of it", name, method, via, shared, copied)
				if shared == 0 || shared+copied < len(sharingChain)/2 {
					t.Errorf("%s/%s/%s: %d of %d steps replayed all of their parent and %d part of it; the chain replays too little to test",
						name, method, via, shared, len(sharingChain), copied)
				}
			}
		}
	}
}

func encodeSchedule(t *testing.T, s *hilight.Schedule) []byte {
	t.Helper()
	b, err := hilight.EncodeScheduleBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecompileChainHeapBounded runs a chain of warm recompiles whose
// edits move down the circuit: step k inserts a CX k/13 of the way into
// its parent's input, so each step replays a longer run of its parent's
// layers, but never all of them. Only the latest result stays
// reachable. A result that kept its parent's arenas for a partial
// replay would keep every ancestor's alive, about k schedules' storage
// at step k, and one that kept only their path arenas about a fifth of
// that; the live heap after each step must stay within one schedule's
// storage of the first step's.
func TestRecompileChainHeapBounded(t *testing.T) {
	c, ok := hilight.Benchmark("urf2_277")
	if !ok {
		t.Fatal("benchmark urf2_277 not registered")
	}
	res, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits), hilight.WithMethod("hilight-map"))
	if err != nil {
		t.Fatal(err)
	}
	unit := scheduleStorage(res.Schedule)
	const steps = 12
	var first uint64
	for k := 1; k <= steps; k++ {
		at := k * len(res.Input.Gates) / (steps + 1)
		cx := hilight.Gate{Kind: hilight.CX, Q0: 0, Q1: res.Input.NumQubits - 1}
		child, err := hilight.Recompile(res, hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpInsert, Index: at, Gate: cx}}})
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if child.WarmCycles == 0 || child.WarmCycles == len(res.Schedule.Layers) {
			t.Fatalf("step %d replayed %d of %d parent layers; the chain needs partial replays", k, child.WarmCycles, len(res.Schedule.Layers))
		}
		res = child
		heap := liveHeap()
		t.Logf("step %d: replayed %d layers, live heap %d B", k, child.WarmCycles, heap)
		if k == 1 {
			first = heap
			continue
		}
		if heap > first+unit {
			t.Fatalf("step %d: live heap %d B, %d B above step 1's; one schedule's braids and paths take %d B",
				k, heap, heap-first, unit)
		}
	}
}

// liveHeap returns the bytes the reachable heap objects take.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what sync.Pool victims held
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scheduleStorage returns the bytes s's braids and paths take.
func scheduleStorage(s *hilight.Schedule) uint64 {
	var n uint64
	for _, l := range s.Layers {
		for _, b := range l {
			n += uint64(unsafe.Sizeof(b)) + uint64(len(b.Path))*uint64(unsafe.Sizeof(0))
		}
	}
	return n
}
