package core

import (
	"hilight/internal/circuit"
	"hilight/internal/qco"
)

// OptimizeProgram applies the program-level optimization (§3.3) and
// returns the rewritten circuit.
func OptimizeProgram(c *circuit.Circuit) *circuit.Circuit { return qco.Optimize(c) }

// Built-in method specs: every configuration the paper evaluates that
// is built from this package's own components. The AutoBraid baselines
// ("autobraid-sp", "autobraid-full") register themselves from
// internal/autobraid, whose placement and adjuster they contribute.
func init() {
	// "hilight" is the paper's full configuration: pattern-matching +
	// qubit-proximity placement, ASAP ordering, closest-corner A*, with
	// the program-level optimization on — the same spec as "hilight-pg".
	RegisterMethod("hilight", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", QCO: true})
	RegisterMethod("hilight-pg", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", QCO: true})
	RegisterMethod("hilight-map", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest"})
	// "hilight-gm" from Fig. 9: the graph-inspired GM placement combined
	// with HiLight's routing.
	RegisterMethod("hilight-gm", Spec{Placement: "gm", Ordering: "proposed", Finder: "astar-closest"})
	// The Fig. 9 scalability baseline: GM placement with exhaustive
	// 16-corner-pair path-finding.
	RegisterMethod("baseline", Spec{Placement: "gm", Ordering: "proposed", Finder: "full-16"})
	RegisterMethod("identity", Spec{Placement: "identity", Ordering: "proposed", Finder: "astar-closest"})
	RegisterMethod("random", Spec{Placement: "random", Ordering: "proposed", Finder: "astar-closest"})
	RegisterMethod("hilight-refined", Spec{Placement: "hilight+refine", Ordering: "proposed", Finder: "astar-closest"})
	RegisterMethod("hilight-cp", Spec{Placement: "hilight", Ordering: "critical-path", Finder: "astar-closest"})
	// The parallel route-pass variants: same semantic stack as "hilight"
	// / "hilight-map", with the speculative multi-worker router
	// (GOMAXPROCS workers by default), whose windowed lookahead has a
	// fixed depth of 4 gates. Schedules are deterministic for any worker
	// count.
	RegisterMethod("hilight-parallel", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", QCO: true, RouteWorkers: -1})
	RegisterMethod("hilight-map-parallel", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", RouteWorkers: -1})
}
