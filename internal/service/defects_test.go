package service

import (
	"runtime"
	"testing"

	"hilight"
)

// TestScheduleConflictsEachDefectClass checks the feed's conflict test
// on every defect class: a placed qubit's tile, a braid's endpoint
// tile, a path vertex, a path channel named in either direction and a
// dead tile that closes a path's channel conflict, duplicates change
// nothing, and ids the schedule never touches do not conflict.
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
	// A tile that holds no qubit and ends no braid conflicts only through
	// the channels it closes: one beside it on the array's edge, or one
	// between it and another closed tile.
	closer := -1
	for tile := 0; tile < g.Tiles() && closer < 0; tile++ {
		if res.Schedule.Initial.TileQubit[tile] == -1 && !endsBraid(res.Schedule, tile) &&
			validateOn(res.Schedule, res.Circuit, g, &hilight.DefectMap{Tiles: []int{tile}}) != nil {
			closer = tile
		}
	}
	if closer < 0 {
		t.Fatal("no empty tile closes a channel a braid crosses")
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
		{"tile closing a channel", hilight.DefectMap{Tiles: []int{closer, far}}, true},
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

// endsBraid reports whether some braid of s starts or ends on tile.
func endsBraid(s *hilight.Schedule, tile int) bool {
	for _, layer := range s.Layers {
		for _, b := range layer {
			if b.CtlTile == tile || b.TgtTile == tile {
				return true
			}
		}
	}
	return false
}

// validateOn validates s against c on g degraded by dm: the judgement a
// recompile's grid passes on the cached schedule.
func validateOn(s *hilight.Schedule, c *hilight.Circuit, g *hilight.Grid, dm *hilight.DefectMap) error {
	dg := g.Clone()
	if err := dg.ApplyDefects(dm); err != nil {
		return err
	}
	on := *s
	on.Grid = dg
	return on.Validate(c)
}

// TestScheduleConflictsMatchValidate holds the defect sweep to
// sched.Validate: on small Table 1 circuits, each on its RectGrid and on
// a roomier 6×6, the sweep evicts a cached schedule exactly when
// Validate rejects it on the grid degraded by the feed. The feeds are
// every single dead tile, every pair of adjacent dead tiles, every
// third vertex and every third channel.
func TestScheduleConflictsMatchValidate(t *testing.T) {
	maps, evicted := 0, 0
	for _, name := range []string{"QFT-10", "QFT-16", "Ising-13", "BV-10", "CC-11"} {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		for _, g := range []*hilight.Grid{hilight.RectGrid(c.NumQubits), hilight.NewGrid(6, 6)} {
			res, err := hilight.Compile(c, g, hilight.WithMethod("hilight-map"), hilight.WithSeed(1))
			if err != nil {
				t.Fatalf("%s on %s: %v", name, g, err)
			}
			sr, err := newStoredResult("fp", res)
			if err != nil {
				t.Fatal(err)
			}
			for _, dm := range sweepFeeds(g) {
				want := validateOn(res.Schedule, res.Circuit, g, &dm) != nil
				got, err := scheduleConflicts(sr, newDeadSets(&dm))
				if err != nil || got != want {
					t.Errorf("%s on %s, defects %+v: conflicts = %v, %v; Validate rejects: %v", name, g, dm, got, err, want)
				}
				maps++
				if got {
					evicted++
				}
			}
		}
	}
	t.Logf("%d feeds, %d evictions", maps, evicted)
}

// sweepFeeds lists TestScheduleConflictsMatchValidate's defect maps on g.
func sweepFeeds(g *hilight.Grid) []hilight.DefectMap {
	var feeds []hilight.DefectMap
	for tile := 0; tile < g.Tiles(); tile++ {
		feeds = append(feeds, hilight.DefectMap{Tiles: []int{tile}})
		x, y := tile%g.W, tile/g.W
		if x+1 < g.W {
			feeds = append(feeds, hilight.DefectMap{Tiles: []int{tile, tile + 1}})
		}
		if y+1 < g.H {
			feeds = append(feeds, hilight.DefectMap{Tiles: []int{tile, tile + g.W}})
		}
	}
	for v := 0; v < g.NumVertices(); v += 3 {
		feeds = append(feeds, hilight.DefectMap{Vertices: []int{v}})
	}
	channel := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range []int{v + 1, v + g.VW()} {
			if u < g.NumVertices() && g.VertexDist(v, u) == 1 {
				if channel%3 == 0 {
					feeds = append(feeds, hilight.DefectMap{Channels: [][2]int{{u, v}}})
				}
				channel++
			}
		}
	}
	return feeds
}
