package graph

import (
	"cmp"
	"math/rand"
	"slices"
)

// BisectK splits verts into a left part of exactly leftSize vertices and
// a right part with the rest, heuristically minimizing the cut weight.
// The implementation is a bounded Kernighan–Lin refinement over a
// degree-seeded initial split — the iterative graph-partitioning
// primitive AutoBraid's placement is built from. rng drives tie-breaking;
// pass a deterministic source for reproducible placements. leftSize is
// clamped to [0, len(verts)]; verts must be distinct.
func (g *Sparse) BisectK(verts []int, leftSize int, rng *rand.Rand) (left, right []int) {
	n := len(verts)
	if leftSize < 0 {
		leftSize = 0
	}
	if leftSize > n {
		leftSize = n
	}
	if n == 0 {
		return nil, nil
	}
	if leftSize == 0 {
		return nil, append([]int(nil), verts...)
	}
	if leftSize == n {
		return append([]int(nil), verts...), nil
	}
	// pos[v] is 1 + v's index in verts, 0 when v is not in the subset;
	// every per-vertex quantity below is kept at that index, and edges
	// calls f with each edge from v into the subset: the other end's
	// index and the weight.
	pos := make([]int32, g.N)
	for i, v := range verts {
		pos[v] = int32(i + 1)
	}
	edges := func(v int, f func(j, w int)) {
		w := g.Weights(v)
		for k, u := range g.Neighbors(v) {
			if pos[u] != 0 {
				f(int(pos[u]-1), int(w[k]))
			}
		}
	}
	// Seed: order by weighted degree within the subset, fill the left half
	// with the heaviest vertices, then let refinement pull partners
	// together.
	subDeg := make([]int, n)
	for i, v := range verts {
		edges(v, func(_, w int) { subDeg[i] += w })
	}
	ordered := append([]int(nil), verts...)
	rng.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	slices.SortStableFunc(ordered, func(a, b int) int {
		return cmp.Compare(subDeg[pos[b]-1], subDeg[pos[a]-1])
	})
	isLeft := make([]bool, n)
	for i, v := range ordered {
		isLeft[pos[v]-1] = i < leftSize
	}

	// gain[i] is verts[i]'s external minus internal weight under the
	// current sides; move keeps every gain current as a vertex changes
	// sides, so the refinement reads each in O(1).
	gain := make([]int, n)
	for i, v := range verts {
		edges(v, func(j, w int) {
			if isLeft[j] == isLeft[i] {
				gain[i] -= w
			} else {
				gain[i] += w
			}
		})
	}
	move := func(i int) {
		isLeft[i] = !isLeft[i]
		gain[i] = -gain[i]
		edges(verts[i], func(j, w int) {
			if isLeft[j] == isLeft[i] {
				gain[j] -= 2 * w
			} else {
				gain[j] += 2 * w
			}
		})
	}
	// pivot holds the weights from the left vertex under trial to the
	// subset, loaded from its row and cleared after, so a pair's weight
	// is one lookup.
	pivot := make([]int, n)

	// Kernighan–Lin style passes: repeatedly swap the pair with the best
	// cut-weight gain until no positive gain remains (bounded passes).
	for pass := 0; pass < 4; pass++ {
		improved := false
		for a := range verts {
			if !isLeft[a] {
				continue
			}
			edges(verts[a], func(j, w int) { pivot[j] = w })
			for b := range verts {
				if isLeft[b] {
					continue
				}
				// Swapping a (left) and b (right) changes the cut by
				// -(gain(a)+gain(b)) + 2*w(a,b).
				if gain[a]+gain[b]-2*pivot[b] > 0 {
					move(a)
					move(b)
					improved = true
					break // a moved sides; restart with the next left vertex
				}
			}
			edges(verts[a], func(j, _ int) { pivot[j] = 0 })
		}
		if !improved {
			break
		}
	}
	for i, v := range verts {
		if isLeft[i] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}
