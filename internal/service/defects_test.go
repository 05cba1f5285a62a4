package service

import (
	"runtime"
	"testing"

	"hilight"
)

// TestScheduleConflictsEachDefectClass checks the feed's conflict test
// on every defect class: a placed qubit's tile, a braid's endpoint
// tile, a path vertex and a path channel named in either direction
// conflict, duplicates change nothing, and ids the schedule never
// touches do not conflict.
func TestScheduleConflictsEachDefectClass(t *testing.T) {
	c, ok := hilight.Benchmark("QFT-10")
	if !ok {
		t.Fatal("unknown benchmark QFT-10")
	}
	g := hilight.RectGrid(c.NumQubits)
	res, err := hilight.Compile(c, g, hilight.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := newStoredResult("fp", res)
	if err != nil {
		t.Fatal(err)
	}
	// A braid of two or more vertices names a channel.
	var b hilight.Braid
	for _, layer := range res.Schedule.Layers {
		for _, br := range layer {
			if len(br.Path) >= 2 {
				b = br
			}
		}
	}
	if len(b.Path) < 2 {
		t.Fatal("no braid crosses a channel")
	}
	// Tiles, vertices and channels past the grid touch nothing.
	far := g.NumVertices() + 100
	untouched := hilight.DefectMap{Tiles: []int{far, far}, Vertices: []int{far}, Channels: [][2]int{{far, far + 1}}}
	for _, tc := range []struct {
		name string
		dm   hilight.DefectMap
		want bool
	}{
		{"nothing", untouched, false},
		{"placed tile", hilight.DefectMap{Tiles: []int{far, res.Schedule.Initial.QubitTile[0], far}}, true},
		{"endpoint tile", hilight.DefectMap{Tiles: []int{b.TgtTile}}, true},
		{"path vertex", hilight.DefectMap{Vertices: []int{far, b.Path[len(b.Path)-1], far}}, true},
		{"channel", hilight.DefectMap{Channels: [][2]int{{far, far + 1}, {b.Path[0], b.Path[1]}}}, true},
		{"channel reversed", hilight.DefectMap{Channels: [][2]int{{b.Path[1], b.Path[0]}, {b.Path[1], b.Path[0]}}}, true},
	} {
		got, err := scheduleConflicts(sr, newDeadSets(&tc.dm))
		if err != nil || got != tc.want {
			t.Errorf("%s: conflicts = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestDeadSetsMemory holds a defect feed's lookup sets to at most twice
// the bytes of the feed's ids: a 1,048,576-tile map, the most an 8 MiB
// body holds, may cost 16 MiB before admission on every node a
// coordinator forwards it to.
func TestDeadSetsMemory(t *testing.T) {
	const n = 1 << 20
	dm := &hilight.DefectMap{Tiles: make([]int, n)}
	for i := range dm.Tiles {
		dm.Tiles[i] = i * 7919 % n // distinct, out of order
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dead := newDeadSets(dm)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dead)
	idBytes := uint64(n * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*idBytes {
		t.Errorf("lookup sets of %d tile ids allocated %.1f MiB, want at most %.1f MiB (2× the ids)",
			n, float64(got)/(1<<20), float64(2*idBytes)/(1<<20))
	}
}
