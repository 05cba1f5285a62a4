package graph

import "math/rand"

// BisectK splits verts into a left part of exactly leftSize vertices and
// a right part with the rest, heuristically minimizing the cut weight.
// The implementation is a bounded Kernighan–Lin refinement over a
// degree-seeded initial split — the iterative graph-partitioning
// primitive AutoBraid's placement is built from. rng drives tie-breaking;
// pass a deterministic source for reproducible placements. leftSize is
// clamped to [0, len(verts)].
func (g *Dense) BisectK(verts []int, leftSize int, rng *rand.Rand) (left, right []int) {
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
	// Seed: order by weighted degree within the subset, fill the left half
	// with the heaviest vertices, then let refinement pull partners
	// together.
	subDeg := func(v int) int {
		s := 0
		for _, u := range verts {
			s += g.Weight(v, u)
		}
		return s
	}
	ordered := append([]int(nil), verts...)
	rng.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	insertionSortBy(ordered, subDeg)

	side := map[int]bool{} // true = left
	for i, v := range ordered {
		side[v] = i < leftSize
	}

	// Kernighan–Lin style passes: repeatedly swap the pair with the best
	// cut-weight gain until no positive gain remains (bounded passes).
	gain := func(v int) int {
		// External minus internal weight for v under current sides.
		ext, int_ := 0, 0
		for _, u := range verts {
			if u == v {
				continue
			}
			w := g.Weight(v, u)
			if w == 0 {
				continue
			}
			if side[u] == side[v] {
				int_ += w
			} else {
				ext += w
			}
		}
		return ext - int_
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for _, a := range verts {
			if !side[a] {
				continue
			}
			for _, b := range verts {
				if side[b] {
					continue
				}
				// Swapping a (left) and b (right) changes the cut by
				// -(gain(a)+gain(b)) + 2*w(a,b).
				delta := gain(a) + gain(b) - 2*g.Weight(a, b)
				if delta > 0 {
					side[a], side[b] = false, true
					improved = true
					break // a moved sides; restart with the next left vertex
				}
			}
		}
		if !improved {
			break
		}
	}
	for _, v := range verts {
		if side[v] {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	return left, right
}

// insertionSortBy sorts vs by descending key(v), stably.
func insertionSortBy(vs []int, key func(int) int) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		k := key(v)
		j := i - 1
		for j >= 0 && key(vs[j]) < k {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}
