package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	_ "hilight/internal/autobraid" // registers the autobraid-partition placement
	"hilight/internal/bench"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/place"
)

// TestPlacementDigests pins the initial layout every registered
// placement, and Pattern on its own, produces, seeded, on each Table 1
// circuit and its M×(M−1) grid: the layout the place pass hands routing,
// digested over all circuits per placement. gm, whose wide layouts cost
// seconds, is pinned on the circuits of up to 200 qubits. A change to how a placement reads the interaction graph,
// orders qubits, searches for a free tile or breaks a tie changes a
// digest. Each layout comes from a pipeline cut after its place pass, so
// it is built from the working circuit a compile places.
func TestPlacementDigests(t *testing.T) {
	want := []struct {
		placement string
		maxQubits int // 0: every Table 1 circuit
		digest    string
	}{
		{"identity", 0, "c41ab776e93eae6e75a5e7172af65da507caec3623e2cbb9a72a13938bef1117"},
		{"random", 0, "736bcdac6d01d17a171cc62ebbd72c41ca50971b35440d912221f731a2591a21"},
		{"proximity", 0, "fa022f54f13fca0791f85637758196f9c978ac7da9c9f8a8ad7b12b35151db00"},
		{"pattern", 0, "f13727626852e97f9c4a469790a289887fc7b4860c6069c8b897e5a962c9c9f7"},
		{"gm", 200, "047a37bbfceb9bc808dc3d32c72e6723aa865d083a9d77946fb115e2f1ba1f3d"},
		{"gmwp", 0, "71401dbd18262a3b15017f9c5a7a4c0c9ab331734ca26e5194ac4d3506b2b9bd"},
		{"hilight", 0, "f13727626852e97f9c4a469790a289887fc7b4860c6069c8b897e5a962c9c9f7"},
		{"hilight+refine", 0, "b26ee1f57eebabb3310c244712de859cbf9d49a31bc9da0fe22ee81a2dacf4f7"},
		{"autobraid-partition", 0, "ae94cde0226315e10cafefee24c7799dc50c191e8f40479c7c461de3cf6ba5aa"},
	}
	entries := bench.Table1()
	grids := make([]*grid.Grid, len(entries))
	for i, e := range entries {
		grids[i] = grid.Rect(e.N)
	}
	for _, w := range want {
		h := sha256.New()
		for i, e := range entries {
			if w.maxQubits > 0 && e.N > w.maxQubits {
				continue
			}
			l := placeOnly(t, w.placement, e, grids[i])
			for _, tile := range l.QubitTile {
				_ = binary.Write(h, binary.LittleEndian, int32(tile))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.digest {
			t.Errorf("placement %s: layout digest %s, want %s", w.placement, got, w.digest)
		}
	}
}

// placeOnly runs the pipeline of a spec that names placement, seeded
// with 1, up to its place pass and returns the layout that pass built.
// "pattern", which no spec names, replaces the spec's placement with
// place.Pattern on the same rng.
func placeOnly(t *testing.T, placement string, e bench.Entry, g *grid.Grid) *grid.Layout {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	sp, ro := core.Spec{Placement: placement}, core.RunOptions{Rng: rng}
	if placement == "pattern" {
		sp.Placement, ro.Placement = "", place.Pattern{Rng: rng}
	}
	p, err := core.NewPipeline(sp, ro)
	if err != nil {
		t.Fatal(err)
	}
	var layout *grid.Layout
	for i, pass := range p.Passes {
		if pass.Name == "place" {
			p.Passes = append(p.Passes[:i+1:i+1], core.Pass{Name: "capture", Run: func(st *core.State) error {
				layout = st.Layout
				return nil
			}})
			break
		}
	}
	if _, err := p.Execute(e.Build(), g); err != nil {
		t.Fatalf("%s on %s: %v", placement, e.Name, err)
	}
	if layout == nil {
		t.Fatalf("%s on %s: no place pass ran", placement, e.Name)
	}
	return layout
}
