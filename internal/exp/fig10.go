package exp

import (
	"hilight/internal/core"
	"hilight/internal/grid"
)

// RunFig10 reproduces Fig. 10: autobraid-full as the external reference
// and the four HiLight variants — map, -pg (program-level), -hw
// (hardware-level M×(M−1) grid), -full (both) — all normalized to
// hilight-map. The hardware-level arms run on the diminished grid; the
// others on the square grid.
func RunFig10(o Options) (*Comparison, error) {
	o = o.fill()
	arms := []arm{
		{name: "autobraid-full", sp: core.MustMethod("autobraid-full"), grid: grid.Square},
		{name: "hilight-map", sp: core.MustMethod("hilight-map"), grid: grid.Square},
		{name: "hilight-pg", sp: core.MustMethod("hilight-pg"), grid: grid.Square},
		{name: "hilight-hw", sp: core.MustMethod("hilight-map")},
		{name: "hilight-full", sp: core.MustMethod("hilight-pg")},
	}
	return compare(o, arms, 1, &Comparison{
		Title:   "Fig. 10 — optimization levels (normalized to hilight-map)",
		Header:  "variant",
		ResUtil: true,
	})
}
