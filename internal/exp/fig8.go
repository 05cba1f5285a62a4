package exp

import (
	"hilight/internal/core"
)

// RunFig8a reproduces Fig. 8a: initial-placement comparison with routing
// fixed to the proposed gate ordering and path-finder.
func RunFig8a(o Options) (*Comparison, error) {
	o = o.fill()
	// Spec zero values default to the proposed ordering and path-finder,
	// so each arm varies placement only.
	arms := []arm{
		{name: "gm", sp: core.Spec{Placement: "gm"}},
		{name: "gmwp", sp: core.Spec{Placement: "gmwp"}},
		{name: "identity", sp: core.Spec{Placement: "identity"}},
		{name: "proposed", sp: core.Spec{Placement: "hilight"}, trials: o.allTrials},
		{name: "random", sp: core.Spec{Placement: "random"}, trials: o.allTrials},
	}
	return compare(o, arms, 3, &Comparison{
		Title:  "Fig. 8a — initial placement (normalized to proposed)",
		Header: "method",
	})
}

// RunFig8b reproduces Fig. 8b: gate-ordering comparison with the proposed
// placement and path-finder.
func RunFig8b(o Options) (*Comparison, error) {
	o = o.fill()
	// Placement defaults to the proposed ("hilight") method, so each arm
	// varies gate ordering only.
	arms := []arm{
		{name: "ascending", sp: core.Spec{Ordering: "ascending"}},
		{name: "descending", sp: core.Spec{Ordering: "descending"}},
		{name: "llg", sp: core.Spec{Ordering: "llg"}},
		{name: "proposed", sp: core.Spec{Ordering: "proposed"}},
		{name: "random", sp: core.Spec{Ordering: "random"}, trials: o.allTrials},
	}
	return compare(o, arms, 3, &Comparison{
		Title:  "Fig. 8b — gate ordering (normalized to proposed)",
		Header: "method",
	})
}

// RunFig8c reproduces Fig. 8c: the six-row ablation over placement,
// pattern matching, gate ordering and fast braiding. Each row's name is
// its four step cells (ours, a baseline, or "-" for the step left out),
// normalized to the full proposed stack (row 3).
func RunFig8c(o Options) (*Comparison, error) {
	o = o.fill()
	arms := []arm{
		{name: "identity\t-\tours\tours", sp: core.Spec{Placement: "identity"}},
		{name: "gm\t-\tours\tours", sp: core.Spec{Placement: "gm"}},
		{name: "ours\t-\tours\tours", sp: core.Spec{Placement: "proximity"}},
		{name: "ours\tours\tours\tours", sp: core.MustMethod("hilight-map")},
		{name: "ours\tours\tours\t-", sp: core.Spec{Finder: "full-16"}},
		{name: "ours\tours\tllg\tours", sp: core.Spec{Ordering: "llg"}},
	}
	return compare(o, arms, 3, &Comparison{
		Title:  "Fig. 8c — individual mapping steps (normalized to full proposed stack)",
		Header: "placement\tpattern\tordering\tbraiding",
	})
}
