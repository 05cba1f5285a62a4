package hwopt

import (
	"fmt"
	"math/rand"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
)

// FactoryPlacement is one evaluated factory position.
type FactoryPlacement struct {
	Grid    *grid.Grid
	X, Y    int // top-left tile of the factory region
	Latency int
	ResUtil float64
}

// CandidateFactoryGrids returns grids for n program qubits with an fw×fh
// factory region reserved at each distinct candidate position: the four
// corners, the four edge midpoints, and the center. Every candidate has
// GridWithFactory's dimensions.
func CandidateFactoryGrids(n, fw, fh int, hwOpt bool) ([]FactoryPlacement, error) {
	if fw < 1 || fh < 1 {
		return nil, fmt.Errorf("hwopt: factory dimensions %dx%d invalid", fw, fh)
	}
	w, h := factoryDims(n, fw, fh, hwOpt)
	maxX, maxY := w-fw, h-fh
	positions := [][2]int{
		{0, 0}, {maxX, 0}, {0, maxY}, {maxX, maxY}, // corners
		{maxX / 2, 0}, {maxX / 2, maxY}, {0, maxY / 2}, {maxX, maxY / 2}, // edges
		{maxX / 2, maxY / 2}, // center
	}
	seen := map[[2]int]bool{}
	var out []FactoryPlacement
	for _, pos := range positions {
		if seen[pos] {
			continue
		}
		seen[pos] = true
		g := grid.New(w, h)
		if err := g.Reserve(pos[0], pos[1], pos[0]+fw-1, pos[1]+fh-1); err != nil {
			return nil, err
		}
		if g.Capacity() < n {
			continue
		}
		out = append(out, FactoryPlacement{Grid: g, X: pos[0], Y: pos[1]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hwopt: no feasible factory position for %d qubits with a %dx%d region", n, fw, fh)
	}
	return out, nil
}

// BestFactoryPlacement maps the circuit on every candidate factory
// position and returns all evaluated placements sorted answer-first: the
// winner (lowest latency, ties by lowest ResUtil then position order)
// is element 0. sp selects the compile pipeline per attempt; the zero
// Spec is the "hilight-map" stack. Every candidate compiles with a
// fresh rng seeded from seed, so positions are compared under identical
// random streams.
func BestFactoryPlacement(c *circuit.Circuit, fw, fh int, hwOpt bool, sp core.Spec, seed int64) ([]FactoryPlacement, error) {
	cands, err := CandidateFactoryGrids(c.NumQubits, fw, fh, hwOpt)
	if err != nil {
		return nil, err
	}
	for i := range cands {
		res, err := core.Run(c, cands[i].Grid, sp, core.RunOptions{
			Rng: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return nil, fmt.Errorf("hwopt: factory at (%d,%d): %w", cands[i].X, cands[i].Y, err)
		}
		cands[i].Latency = res.Latency
		cands[i].ResUtil = res.ResUtil
	}
	// Stable selection sort: small candidate count, clarity over speed.
	for i := 0; i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].Latency < cands[best].Latency ||
				(cands[j].Latency == cands[best].Latency && cands[j].ResUtil < cands[best].ResUtil) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	return cands, nil
}
