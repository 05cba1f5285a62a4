package route

// Differential test for the complete finders' free-component pruning
// (freeLabels): AStar, StackDFS and Full16 must answer every call exactly
// as their unpruned corner-pair loops do, across call sequences that hit
// every case of the labels' validity key.

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hilight/internal/grid"
)

// unprunedAStar is AStar.Find without pruning: A* on each free corner
// pair in distance order; the first path wins.
func unprunedAStar(a *AStar, g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
	var pairs [16]cornerPair
	cornerPairsByDistance(g, t1, t2, &pairs)
	for _, pr := range &pairs {
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) {
			continue
		}
		if p, ok := a.search(g, occ, pr.u, pr.v, nil); ok {
			return p, true
		}
	}
	return nil, false
}

// unprunedStackDFS is StackDFS.Find without pruning.
func unprunedStackDFS(s *StackDFS, g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
	var pairs [16]cornerPair
	cornerPairsByDistance(g, t1, t2, &pairs)
	for _, pr := range &pairs {
		if occ.VertexUsed(pr.u) || occ.VertexUsed(pr.v) {
			continue
		}
		if p, ok := s.dfs(g, occ, pr.u, pr.v, nil); ok {
			return p, true
		}
	}
	return nil, false
}

// unprunedFull16 is Full16.Find without pruning: A* on all 16 corner
// pairs; the first strictly shortest path wins.
func unprunedFull16(a *AStar, g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
	var best Path
	found := false
	for _, u := range g.Corners(t1) {
		for _, v := range g.Corners(t2) {
			if p, ok := a.search(g, occ, u, v, nil); ok && (!found || p.Len() < best.Len()) {
				best, found = p, true
			}
		}
	}
	return best, found
}

// TestPrunedFindersMatchUnprunedLoops drives each pruned finder and its
// unpruned reference through one call sequence: several Find calls per
// epoch with each returned path added in between (labels that go stale
// within an epoch), a Reset of every occupancy between rounds (a new
// epoch), and two occupancies used alternately at equal epochs, as
// CompactSchedule does (a different occupancy). The first occupancy is
// randomGrid's own, so round 0 starts among its scattered walks. Every
// call must return the same ok and the identical path.
func TestPrunedFindersMatchUnprunedLoops(t *testing.T) {
	failures := 0
	f := func(seed int64) bool {
		var refA AStar
		var refS StackDFS
		variants := []struct {
			finder Finder
			ref    func(g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool)
		}{
			{&AStar{}, func(g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
				return unprunedAStar(&refA, g, occ, t1, t2)
			}},
			{&StackDFS{}, func(g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
				return unprunedStackDFS(&refS, g, occ, t1, t2)
			}},
			{&Full16{}, func(g *grid.Grid, occ *Occupancy, t1, t2 int) (Path, bool) {
				return unprunedFull16(&refA, g, occ, t1, t2)
			}},
		}
		for _, vr := range variants {
			rng := rand.New(rand.NewSource(seed))
			g, occ := randomGrid(rng)
			occs := [2]*Occupancy{occ, NewOccupancy(g)}
			for round := 0; round < 4; round++ {
				for call := 0; call < 24; call++ {
					o := occs[call%2]
					t1, t2 := rng.Intn(g.Tiles()), rng.Intn(g.Tiles())
					p, ok := vr.finder.Find(g, o, t1, t2, nil)
					want, wantOK := vr.ref(g, o, t1, t2)
					if ok != wantOK || !slices.Equal(p, want) {
						t.Logf("seed %d: %s round %d call %d tiles (%d,%d): got %v %v, unpruned %v %v",
							seed, vr.finder.Name(), round, call, t1, t2, ok, p, wantOK, want)
						return false
					}
					if !ok {
						failures++
						continue
					}
					o.Add(p)
				}
				for _, o := range occs {
					o.Reset()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if failures == 0 {
		t.Error("no Find call failed, so no pruning was exercised")
	}
}
