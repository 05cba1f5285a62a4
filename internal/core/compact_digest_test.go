package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"hilight/internal/bench"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/wire"
)

// TestCompactionDigests pins CompactSchedule's output bytes on Table 1
// circuits of up to compactDigestGates gates, each routed by hilight-map
// with the L-shape finder, whose deferrals leave cycles to recover, and
// with its own A*, whose schedules are already tight. Each schedule is
// compacted with A*; the digest is the SHA-256 of the binary encodings
// of the compacted schedules, per finder, in Table 1 order, and the
// latencies saved are summed beside it.
func TestCompactionDigests(t *testing.T) {
	want := []struct {
		finder string
		saved  int
		digest string
	}{
		{"l-shape", 306, "40f3020fd9c29c853102dce70a7b343f111c0fb110422666d34d7988283ab5de"},
		{"astar-closest", 0, "42becc3c0cbad4d445f508275321b26bacbde391a8078bba3b4694ef3c0a1b4a"},
	}
	i := 0
	for _, finder := range []string{"l-shape", "astar-closest"} {
		h := sha256.New()
		saved := 0
		for _, e := range bench.Table1() {
			if e.Gates > compactDigestGates {
				continue
			}
			c := e.Build()
			g := grid.Rect(c.NumQubits)
			sp := core.MustMethod("hilight-map")
			sp.Finder = finder
			res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, finder, err)
			}
			compact := core.CompactSchedule(res.Schedule, res.Circuit, nil)
			if err := compact.Validate(res.Circuit); err != nil {
				t.Fatalf("%s/%s: compacted schedule invalid: %v", e.Name, finder, err)
			}
			bin, err := wire.Binary.Encode(compact)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(bin)
			saved += res.Schedule.Latency() - compact.Latency()
		}
		got := hex.EncodeToString(h.Sum(nil))
		if i >= len(want) {
			t.Errorf("no row for {%q, %d, %q},", finder, saved, got)
		} else if w := want[i]; w.finder != finder || w.saved != saved || w.digest != got {
			t.Errorf("row %d: got {%q, %d, %q},", i, finder, saved, got)
		}
		i++
	}
}

// compactDigestGates bounds the circuits TestCompactionDigests compacts.
const compactDigestGates = 13000
