package exp

import (
	"strconv"

	"hilight/internal/core"
)

// RunThresholdSweep measures the ready-set size above which the
// ordering strategy is invoked at 1, 2, 4, 8, 16 and 1<<30 (never
// order) over the scaled benchmark set, normalized to threshold 4. The
// paper adopts 4 from AutoBraid's analysis; this sweep regenerates the
// trade-off behind that constant. Each arm is named by its threshold.
func RunThresholdSweep(o Options) (*Comparison, error) {
	o = o.fill()
	var arms []arm
	for _, th := range []int{1, 2, 4, 8, 16, 1 << 30} {
		sp := core.MustMethod("hilight-map")
		sp.OrderingThreshold = th
		arms = append(arms, arm{name: strconv.Itoa(th), sp: sp})
	}
	return compare(o, arms, 2, &Comparison{
		Title:  "Ablation — gate-ordering invocation threshold (normalized to threshold 4)",
		Header: "threshold",
	})
}

// RunFinderAblation measures the four path-finders — single-A*, the
// exhaustive 16-pair search, the AutoBraid stack DFS, and the two-bend
// L-shape — under otherwise identical mapping (proposed placement and
// ordering) across the scaled benchmark set, normalized to single-A*.
func RunFinderAblation(o Options) (*Comparison, error) {
	o = o.fill()
	var arms []arm
	for _, f := range []string{"astar-closest", "full-16", "stack-dfs", "l-shape"} {
		arms = append(arms, arm{name: f, sp: core.Spec{Placement: "hilight", Finder: f}})
	}
	return compare(o, arms, 0, &Comparison{
		Title:   "Ablation — braiding path-finders (normalized to astar-closest)",
		Header:  "finder",
		ResUtil: true,
	})
}
