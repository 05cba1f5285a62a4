package sched

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// Diff summarizes how two schedules for the same circuit differ — the
// regression-analysis view for anyone iterating on placement, ordering
// or path-finding heuristics.
type Diff struct {
	LatencyA, LatencyB   int
	PathLenA, PathLenB   int
	BraidsA, BraidsB     int
	InsertedA, InsertedB int
	// GateMoves counts circuit gates scheduled in a different cycle.
	GateMoves int
	// GateRepaths counts gates scheduled in the same cycle but along a
	// different path.
	GateRepaths int
	// OnlyA / OnlyB are circuit gates present in one schedule only
	// (normally empty for complete schedules of the same circuit).
	OnlyA, OnlyB []int
}

// Compare computes the Diff between two schedules.
func Compare(a, b *Schedule) Diff {
	d := Diff{
		LatencyA: a.Latency(), LatencyB: b.Latency(),
		PathLenA: a.TotalPathLength(), PathLenB: b.TotalPathLength(),
		BraidsA: a.BraidCount(), BraidsB: b.BraidCount(),
		InsertedA: a.InsertedBraids(), InsertedB: b.InsertedBraids(),
	}
	// Identical leading layers — the dominant case for session
	// recompiles, where the warm start replays the parent prefix
	// verbatim — contribute nothing to moves, repaths or coverage, so
	// skip them wholesale and index only the differing suffixes.
	// (Schedules where a gate appears more than once are invalid; their
	// per-gate diff is undefined either way.)
	skip := 0
	for skip < len(a.Layers) && skip < len(b.Layers) && layerEqual(a.Layers[skip], b.Layers[skip]) {
		skip++
	}
	type slot struct {
		cycle int
		path  []int
	}
	index := func(s *Schedule) map[int]slot {
		m := make(map[int]slot, 2*(len(s.Layers)-skip))
		for li := skip; li < len(s.Layers); li++ {
			for _, br := range s.Layers[li] {
				if br.Gate >= 0 {
					// Paths are borrowed, never mutated: keying on the slice
					// keeps Compare allocation-light on schedules with
					// thousands of layers (the session hot path).
					m[br.Gate] = slot{cycle: li, path: br.Path}
				}
			}
		}
		return m
	}
	ma, mb := index(a), index(b)
	for gate, sa := range ma {
		sb, ok := mb[gate]
		if !ok {
			d.OnlyA = append(d.OnlyA, gate)
			continue
		}
		switch {
		case sa.cycle != sb.cycle:
			d.GateMoves++
		case !slices.Equal(sa.path, sb.path):
			d.GateRepaths++
		}
	}
	for gate := range mb {
		if _, ok := ma[gate]; !ok {
			d.OnlyB = append(d.OnlyB, gate)
		}
	}
	return d
}

// layerEqual reports whether two layers schedule exactly the same braids
// along exactly the same paths. A warm recompile's replayed layers are
// the parent's own (see core.WarmStart), so a layer that shares its
// storage is equal without a walk.
func layerEqual(a, b Layer) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].Gate != b[i].Gate || a[i].CtlTile != b[i].CtlTile ||
			a[i].TgtTile != b[i].TgtTile || a[i].SwapTiles != b[i].SwapTiles ||
			!slices.Equal(a[i].Path, b[i].Path) {
			return false
		}
	}
	return true
}

// Print renders the diff as a two-column comparison.
func (d Diff) Print(w io.Writer, nameA, nameB string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\t%s\t%s\n", nameA, nameB)
	fmt.Fprintf(tw, "latency\t%d\t%d\n", d.LatencyA, d.LatencyB)
	fmt.Fprintf(tw, "path length\t%d\t%d\n", d.PathLenA, d.PathLenB)
	fmt.Fprintf(tw, "braids\t%d\t%d\n", d.BraidsA, d.BraidsB)
	fmt.Fprintf(tw, "inserted swaps\t%d\t%d\n", d.InsertedA, d.InsertedB)
	tw.Flush()
	fmt.Fprintf(w, "gates rescheduled to a different cycle: %d\n", d.GateMoves)
	fmt.Fprintf(w, "gates re-routed within the same cycle:  %d\n", d.GateRepaths)
	if len(d.OnlyA) > 0 || len(d.OnlyB) > 0 {
		fmt.Fprintf(w, "WARNING: gate coverage differs (only-%s: %v, only-%s: %v)\n",
			nameA, d.OnlyA, nameB, d.OnlyB)
	}
}
