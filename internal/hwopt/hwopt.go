// Package hwopt implements the magic-state-factory reservation of the
// hardware-level optimization (§3.4): the factory is encapsulated as a
// singular, non-braiding logical qubit region in a corner of the M×M
// square or the diminished M×(M−1) rectangle (grid.Square, grid.Rect).
// The ResUtil metric (Eq. 1) is sched.Schedule.ResUtil.
package hwopt

import (
	"fmt"

	"hilight/internal/grid"
)

// GridWithFactory returns a grid for n program qubits with fw×fh tiles
// reserved in the bottom-right corner for the magic-state factory. The
// grid is grown just enough to keep capacity ≥ n (see factoryDims).
func GridWithFactory(n, fw, fh int, hwOpt bool) (*grid.Grid, error) {
	if fw < 1 || fh < 1 {
		return nil, fmt.Errorf("hwopt: factory dimensions %dx%d invalid", fw, fh)
	}
	w, h := factoryDims(n, fw, fh, hwOpt)
	g := grid.New(w, h)
	if err := g.Reserve(w-fw, h-fh, w-1, h-1); err != nil {
		return nil, err
	}
	return g, nil
}

// factoryDims returns, without building any grid, the dimensions of the
// first grid of the sequence grid.Rect(n+fw·fh+extra) (grid.Square
// without hwOpt), extra = 0, 1, 2, …, that is at least fw wide and fh
// tall. Every grid of the sequence has at least n+fw·fh tiles, so the
// first one that fits the factory also fits n qubits beside it. The
// side m only grows along the sequence, and for each m it yields the
// m×(m−1) rectangle (with hwOpt, while m(m−1) tiles suffice) before the
// m×m square.
func factoryDims(n, fw, fh int, hwOpt bool) (w, h int) {
	need := n + fw*fh
	m := 1
	for m*m < need {
		m++
	}
	for ; ; m++ {
		if hwOpt && m >= 2 && m*(m-1) >= need && m >= fw && m-1 >= fh {
			return m, m - 1
		}
		if m >= fw && m >= fh {
			return m, m
		}
		need = m*m + 1 // the first tile count that maps to side m+1
	}
}
