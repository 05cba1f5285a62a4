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
)

// TestPlacementDigests pins the initial layout every registered
// placement produces, seeded, on each Table 1 circuit of up to 200
// qubits and its M×(M−1) grid: the layout the place pass hands routing,
// digested over all circuits per placement. A change to how a placement
// reads the interaction graph, orders qubits or breaks a tie changes a
// digest. Each layout comes from a pipeline cut after its place pass,
// so it is built from the working circuit a compile places.
func TestPlacementDigests(t *testing.T) {
	want := map[string]string{
		"identity":            "be81100e21c48c3b27c32d489bec245fb33ba703810eab5ef673225f2026f347",
		"random":              "ca77328b19a776036e5acb96eef11502713d43334760a4533519c6b9540d868a",
		"proximity":           "022de31e48b8ea78e63de49c4095e56cf679771778f998a747edab44ed42f300",
		"gm":                  "047a37bbfceb9bc808dc3d32c72e6723aa865d083a9d77946fb115e2f1ba1f3d",
		"gmwp":                "9954c1c49892ebe7915b824b25b1d9b97a3db1c399ab7e43d3a3bb6b0ecab3f2",
		"hilight":             "180817c4cc60f868276985b7f128b83a0a5aa65861a9224b484840ce3364a666",
		"hilight+refine":      "3da64c6882f2211b9b2526e19e836898c34868e8bc7a1bedf728e285718878d9",
		"autobraid-partition": "a7f7e16676ebf55b59a6cdd944408b1931da7887c5f66887c2f6a0c2fbfdb6a1",
	}
	var entries []bench.Entry
	for _, e := range bench.Table1() {
		if e.N <= 200 {
			entries = append(entries, e)
		}
	}
	grids := make([]*grid.Grid, len(entries))
	for i, e := range entries {
		grids[i] = grid.Rect(e.N)
	}
	for name, digest := range want {
		h := sha256.New()
		for i, e := range entries {
			l := placeOnly(t, name, e, grids[i])
			for _, tile := range l.QubitTile {
				_ = binary.Write(h, binary.LittleEndian, int32(tile))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("placement %s: layout digest %s, want %s", name, got, digest)
		}
	}
}

// placeOnly runs the pipeline of a spec that names placement, seeded
// with 1, up to its place pass and returns the layout that pass built.
func placeOnly(t *testing.T, placement string, e bench.Entry, g *grid.Grid) *grid.Layout {
	t.Helper()
	p, err := core.NewPipeline(core.Spec{Placement: placement}, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
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
