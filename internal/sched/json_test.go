package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hilight/internal/grid"
	"hilight/internal/route"
)

// referenceJSON is the schedule's JSON form as encoding/json writes it:
// the schedule reflected into jsonSchedule and indented at prefix.
// AppendJSON must write the same bytes.
func referenceJSON(s *Schedule, prefix string) ([]byte, error) {
	js := jsonSchedule{
		Version: jsonVersion,
		GridW:   s.Grid.W,
		GridH:   s.Grid.H,
		Qubits:  len(s.Initial.QubitTile),
		Initial: append([]int(nil), s.Initial.QubitTile...),
	}
	for t := 0; t < s.Grid.Tiles(); t++ {
		if s.Grid.Reserved(t) {
			js.Reserved = append(js.Reserved, t)
		}
	}
	if d := s.Grid.Defects(); !d.Empty() {
		js.Defects = d
	}
	for _, layer := range s.Layers {
		jl := make([]jsonBraid, len(layer))
		for i, b := range layer {
			jl[i] = jsonBraid{
				Gate: b.Gate, CtlTile: b.CtlTile, TgtTile: b.TgtTile,
				Path: append([]int(nil), b.Path...), SwapTiles: b.SwapTiles,
			}
		}
		js.Layers = append(js.Layers, jl)
	}
	return json.MarshalIndent(js, prefix, "  ")
}

// checkAppendJSON holds AppendJSON to referenceJSON byte for byte, at
// the top level and nested at a response's prefix, appended after
// existing bytes, and within the size jsonSize reserved for it.
func checkAppendJSON(t *testing.T, s *Schedule) {
	t.Helper()
	for _, prefix := range []string{"", "        "} {
		want, err := referenceJSON(s, prefix)
		if err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		got, err := AppendJSON([]byte("head"), s, prefix)
		if err != nil {
			t.Fatalf("AppendJSON: %v", err)
		}
		if !bytes.Equal(got[4:], want) || string(got[:4]) != "head" {
			t.Fatalf("AppendJSON at prefix %q differs from encoding/json:\n%s\nwant\n%s", prefix, got, want)
		}
		reserved := jsonSize(s, len(prefix))
		if d := s.Grid.Defects(); !d.Empty() {
			dj, _ := json.MarshalIndent(d, prefix+"  ", "  ")
			reserved += len(dj)
		}
		if len(want) > reserved {
			t.Fatalf("AppendJSON at prefix %q wrote %d bytes past the %d it sized", prefix, len(want)-reserved, reserved)
		}
	}
}

func TestAppendJSONMatchesReference(t *testing.T) {
	_, _, s := buildFixture(t)
	checkAppendJSON(t, s)
	g := grid.New(3, 2)
	g.ReserveTile(5)
	if err := g.ApplyDefects(&grid.DefectMap{Tiles: []int{4}, Vertices: []int{11}, Channels: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	l := grid.NewLayout(2, g)
	l.Assign(0, 0, g)
	l.Assign(1, 1, g)
	checkAppendJSON(t, &Schedule{Grid: g, Initial: l, Layers: []Layer{
		{{Gate: 12345, CtlTile: 0, TgtTile: 1, Path: route.Path{1, 5}}},
		{},
		{{Gate: -1, CtlTile: 0, TgtTile: 1}, {Gate: -1, CtlTile: 0, TgtTile: 1, Path: route.Path{2}, SwapTiles: true}},
	}})
	checkAppendJSON(t, &Schedule{Grid: grid.New(1, 1), Initial: grid.NewLayout(0, grid.New(1, 1))})
	if err := quick.Check(func(seed int64) bool {
		checkAppendJSON(t, randomSchedule(rand.New(rand.NewSource(seed))))
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, c, s := buildFixture(t)
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(c); err != nil {
		t.Fatalf("decoded schedule invalid: %v", err)
	}
	if s2.Latency() != s.Latency() || s2.TotalPathLength() != s.TotalPathLength() {
		t.Error("metrics changed through round trip")
	}
	if s2.Grid.W != s.Grid.W || s2.Grid.H != s.Grid.H {
		t.Error("grid changed")
	}
}

func TestJSONRoundTripWithReservedAndSwaps(t *testing.T) {
	g := grid.New(3, 2)
	g.ReserveTile(5)
	l := grid.NewLayout(2, g)
	l.Assign(0, 0, g)
	l.Assign(1, 1, g)
	shared := g.VertexID(1, 0)
	s := &Schedule{Grid: g, Initial: l, Layers: []Layer{
		{{Gate: -1, CtlTile: 0, TgtTile: 1, Path: route.Path{shared}}},
		{{Gate: -1, CtlTile: 0, TgtTile: 1, Path: route.Path{shared}, SwapTiles: true}},
	}}
	data, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Grid.Reserved(5) {
		t.Error("reservation lost")
	}
	if !s2.Layers[1][0].SwapTiles {
		t.Error("swap flag lost")
	}
	if s2.InsertedBraids() != 2 {
		t.Errorf("inserted braids = %d", s2.InsertedBraids())
	}
}

func TestEncodeJSONRequiresCompleteSchedule(t *testing.T) {
	if _, err := EncodeJSON(&Schedule{}); err == nil {
		t.Error("empty schedule encoded")
	}
}

func TestDecodeJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version":99,"grid_w":2,"grid_h":2,"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":0,"grid_h":2,"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":1,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":1,"initial":[99]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"reserved":[0],"qubits":1,"initial":[0]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"reserved":[77],"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":2,"initial":[1,1]}`,
		`{"version":1,"grid_w":1,"grid_h":1,"qubits":5,"initial":[0,0,0,0,0]}`,
	}
	for i, src := range cases {
		if _, err := DecodeJSON([]byte(src)); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
}

func TestJSONOutputIsStable(t *testing.T) {
	_, _, s := buildFixture(t)
	a, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("encoding not deterministic")
	}
	if !strings.Contains(string(a), `"version": 1`) {
		t.Error("version field missing")
	}
}

// randomSchedule draws a schedule of up to three layers of one-vertex
// braids on a small grid.
func randomSchedule(rng *rand.Rand) *Schedule {
	g := grid.New(2+rng.Intn(4), 2+rng.Intn(4))
	n := 1 + rng.Intn(g.Tiles())
	l := grid.NewLayout(n, g)
	perm := rng.Perm(g.Tiles())
	for q := 0; q < n; q++ {
		l.Assign(q, perm[q], g)
	}
	s := &Schedule{Grid: g, Initial: l}
	for li := 0; li < rng.Intn(4); li++ {
		var layer Layer
		for bi := 0; bi < 1+rng.Intn(3); bi++ {
			v := rng.Intn(g.NumVertices())
			layer = append(layer, Braid{
				Gate: rng.Intn(10) - 1, CtlTile: rng.Intn(g.Tiles()),
				TgtTile: rng.Intn(g.Tiles()), Path: route.Path{v},
			})
		}
		s.Layers = append(s.Layers, layer)
	}
	return s
}

// Property: arbitrary valid schedules survive the JSON round trip
// braid-for-braid.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSchedule(rand.New(rand.NewSource(seed)))
		data, err := EncodeJSON(s)
		if err != nil {
			return false
		}
		s2, err := DecodeJSON(data)
		if err != nil {
			return false
		}
		if len(s2.Layers) != len(s.Layers) {
			return false
		}
		for i := range s.Layers {
			if len(s2.Layers[i]) != len(s.Layers[i]) {
				return false
			}
			for j := range s.Layers[i] {
				a, b := s.Layers[i][j], s2.Layers[i][j]
				if a.Gate != b.Gate || a.CtlTile != b.CtlTile || a.TgtTile != b.TgtTile ||
					a.SwapTiles != b.SwapTiles || len(a.Path) != len(b.Path) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
