package hilight_test

// The indented JSON form of a schedule is part of every JSON response,
// the CLI's -format json and the chaos ledger, so its bytes are frozen
// here: a SHA-256 digest of EncodeScheduleJSON for each golden_wire
// fixture and for schedules on a defect grid, a factory grid and with
// inserted SWAP braids, and a literal for a hand-built schedule that
// holds every null, empty and omitted member the form has. The
// schedule goldens hash structure, not these bytes.

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"hilight"
	"hilight/internal/grid"
	"hilight/internal/route"
	"hilight/internal/sched"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestScheduleJSONDigests(t *testing.T) {
	compile := func(t *testing.T, name string, g *hilight.Grid, opts ...hilight.Option) *hilight.Schedule {
		t.Helper()
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		if g == nil {
			g = hilight.RectGrid(c.NumQubits)
		}
		res, err := hilight.Compile(c, g, append([]hilight.Option{hilight.WithSeed(1)}, opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Schedule
	}
	cases := []struct {
		name     string
		schedule func(t *testing.T) *hilight.Schedule
		digest   string
	}{
		{"golden_wire/QFT-10", nil, "986e6f4ac53ceeb51733c595b648e6708cb2b6e5d97bd9d79f3e4f40c9510ac7"},
		{"golden_wire/QFT-16", nil, "ab29e4ffef3e1f8fbae108eab687a856fb162e54c355611d9aece505f7a3e363"},
		{"golden_wire/BV-10", nil, "49901bd75d05d28a96bcfdc9c075805fd41acd20967aa8d09a9fb821693bdcf2"},
		{"golden_wire/CC-11", nil, "13c22672b72ba702d31f4f441342d50ca9bad52bc25757909af8b0785d759282"},
		{"golden_wire/Ising-10", nil, "4910be025c0a1d8b25852b5c50eac80266334faf3e36076be285ffd180cdf861"},
		{"defect grid QFT-16", func(t *testing.T) *hilight.Schedule {
			g := hilight.NewGrid(5, 4)
			_, dm := hilight.InjectDefects(g, 0.05, 4)
			s := compile(t, "QFT-16", g, hilight.WithDefects(dm))
			d := s.Grid.Defects()
			if len(d.Tiles) == 0 || len(d.Vertices) == 0 || len(d.Channels) == 0 {
				t.Fatalf("defect map %+v lacks a defect class", d)
			}
			return s
		}, "b68aeb7efd1c70d0895065cdbeb2576a086fc19bea8b4456cd8966535183a60f"},
		{"factory grid QFT-16", func(t *testing.T) *hilight.Schedule {
			g, err := hilight.GridWithFactory(16, 2, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if g.Capacity() == g.Tiles() {
				t.Fatal("factory reserved no tile")
			}
			return compile(t, "QFT-16", g)
		}, "991267b4ab812d75f80202e3fb3c903d8406d698adfe8520718dd63943b94488"},
		{"autobraid-full sqrt8_260", func(t *testing.T) *hilight.Schedule {
			s := compile(t, "sqrt8_260", nil, hilight.WithMethod("autobraid-full"))
			if s.InsertedBraids() == 0 {
				t.Fatal("no SWAP braids to pin")
			}
			return s
		}, "0e45d124a8b300a47e0e5df59cb3d8a18bc29caabc79d9d600680b97de567489"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s *hilight.Schedule
			if tc.schedule == nil {
				bin, err := os.ReadFile(filepath.Join(goldenWireDir, filepath.Base(tc.name)+".bin"))
				if err != nil {
					t.Fatal(err)
				}
				if s, err = hilight.DecodeScheduleBinary(bin); err != nil {
					t.Fatal(err)
				}
			} else {
				s = tc.schedule(t)
			}
			js, err := hilight.EncodeScheduleJSON(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(js); got != tc.digest {
				t.Errorf("EncodeScheduleJSON digest = %s, want %s (%d bytes)", got, tc.digest, len(js))
			}
		})
	}
}

// TestScheduleJSONEdgeCases pins, as literals, the members that are
// null, empty or omitted: a schedule with no qubits and no layers, and
// one with reserved tiles, defects, an empty layer, an empty path and
// a SWAP braid.
func TestScheduleJSONEdgeCases(t *testing.T) {
	bare := &sched.Schedule{Grid: grid.New(1, 1), Initial: grid.NewLayout(0, grid.New(1, 1))}
	g := grid.New(3, 2)
	g.ReserveTile(5)
	dm := &grid.DefectMap{Tiles: []int{4}, Vertices: []int{11}, Channels: [][2]int{{0, 1}}}
	if err := g.ApplyDefects(dm); err != nil {
		t.Fatal(err)
	}
	l := grid.NewLayout(2, g)
	l.Assign(0, 0, g)
	l.Assign(1, 1, g)
	full := &sched.Schedule{Grid: g, Initial: l, Layers: []sched.Layer{
		{{Gate: 3, CtlTile: 0, TgtTile: 1, Path: route.Path{g.VertexID(1, 0), g.VertexID(1, 1)}}},
		{},
		{{Gate: -1, CtlTile: 0, TgtTile: 1}, {Gate: -1, CtlTile: 0, TgtTile: 1, Path: route.Path{2}, SwapTiles: true}},
	}}
	for _, tc := range []struct {
		name string
		s    *sched.Schedule
		want string
	}{
		{"bare", bare, `{
  "version": 1,
  "grid_w": 1,
  "grid_h": 1,
  "qubits": 0,
  "initial": null,
  "layers": null
}`},
		{"full", full, `{
  "version": 1,
  "grid_w": 3,
  "grid_h": 2,
  "reserved": [
    5
  ],
  "defects": {
    "tiles": [
      4
    ],
    "vertices": [
      11
    ],
    "channels": [
      [
        0,
        1
      ]
    ]
  },
  "qubits": 2,
  "initial": [
    0,
    1
  ],
  "layers": [
    [
      {
        "gate": 3,
        "ctl": 0,
        "tgt": 1,
        "path": [
          1,
          5
        ]
      }
    ],
    [],
    [
      {
        "gate": -1,
        "ctl": 0,
        "tgt": 1,
        "path": null
      },
      {
        "gate": -1,
        "ctl": 0,
        "tgt": 1,
        "path": [
          2
        ],
        "swap": true
      }
    ]
  ]
}`},
	} {
		got, err := hilight.EncodeScheduleJSON(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: EncodeScheduleJSON =\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
