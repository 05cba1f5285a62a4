// Package hwopt implements the hardware-level optimization of §3.4: the
// ResUtil resource-utilization metric (Eq. 1), grid-shape selection
// between the M×M square and the diminished M×(M−1) rectangle, and
// magic-state-factory reservation (the factory is encapsulated as a
// singular, non-braiding logical qubit region).
package hwopt

import (
	"fmt"

	"hilight/internal/grid"
	"hilight/internal/sched"
)

// ResUtil computes Eq. 1: total braiding path length divided by grid area
// times latency. Zero latency yields zero.
func ResUtil(totalPathLen, gridTiles, latency int) float64 {
	if latency <= 0 || gridTiles <= 0 {
		return 0
	}
	return float64(totalPathLen) / (float64(gridTiles) * float64(latency))
}

// ResUtilOf computes Eq. 1 for a schedule.
func ResUtilOf(s *sched.Schedule) float64 {
	return ResUtil(s.TotalPathLength(), s.Grid.Tiles(), s.Latency())
}

// PerLayerUtilization returns, per braiding cycle, the fraction of the
// grid's tiles worth of channel length consumed — the balance profile the
// paper's hardware-level optimization targets.
func PerLayerUtilization(s *sched.Schedule) []float64 {
	out := make([]float64, len(s.Layers))
	tiles := float64(s.Grid.Tiles())
	for i, layer := range s.Layers {
		total := 0
		for _, b := range layer {
			total += len(b.Path) // occupied vertices, as in Eq. 1's numerator
		}
		out[i] = float64(total) / tiles
	}
	return out
}

// GridFor returns the hardware grid for n program qubits: the M×M square
// by default, or the paper's diminished M×(M−1) rectangle when hwOpt is
// set (falling back to M×M when the rectangle cannot hold n qubits).
func GridFor(n int, hwOpt bool) *grid.Grid {
	if hwOpt {
		return grid.Rect(n)
	}
	return grid.Square(n)
}

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

// factoryDims returns the dimensions of the first grid of the sequence
// GridFor(n+fw·fh+extra, hwOpt), extra = 0, 1, 2, …, that is at least fw
// wide and fh tall, without building any of them. Every grid of the
// sequence has at least n+fw·fh tiles, so the first one that fits the
// factory also fits n qubits beside it. GridFor's side m only grows
// along the sequence, and for each m it yields the m×(m−1) rectangle
// (with hwOpt, while m(m−1) tiles suffice) before the m×m square.
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
		need = m*m + 1 // the first tile count GridFor maps to side m+1
	}
}

// BalanceReport summarizes how evenly braiding load spreads over the
// schedule: the mean per-layer utilization, its peak, and the ratio
// (1.0 = perfectly flat). The paper tunes the grid shape so utilization
// stays balanced while shrinking hardware.
type BalanceReport struct {
	Mean float64
	Peak float64
	// Flatness is Mean/Peak (0 when the schedule is empty).
	Flatness float64
}

// Balance computes the BalanceReport of a schedule.
func Balance(s *sched.Schedule) BalanceReport {
	util := PerLayerUtilization(s)
	var r BalanceReport
	if len(util) == 0 {
		return r
	}
	for _, u := range util {
		r.Mean += u
		if u > r.Peak {
			r.Peak = u
		}
	}
	r.Mean /= float64(len(util))
	if r.Peak > 0 {
		r.Flatness = r.Mean / r.Peak
	}
	return r
}
