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
	// the program-level optimization on. "hilight-pg" registers the same
	// spec under the name Fig. 10 and the experiments give its arm; both
	// names stay because Fingerprint digests the method name.
	full := Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", QCO: true}
	RegisterMethod("hilight", full)
	RegisterMethod("hilight-pg", full)
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
	// The speculative route-step variants: same semantic stack as
	// "hilight" / "hilight-map", routed by the speculative step, whose
	// windowed lookahead has a fixed depth of 4 gates. The step runs on
	// one goroutine; the "-parallel" names are historical and stay
	// because Fingerprint digests the method name.
	RegisterMethod("hilight-parallel", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", QCO: true, Speculative: true})
	RegisterMethod("hilight-map-parallel", Spec{Placement: "hilight", Ordering: "proposed", Finder: "astar-closest", Speculative: true})
}
