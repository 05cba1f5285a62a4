package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hilight/internal/grid"
	"hilight/internal/route"
	"hilight/internal/sched"
)

// testSchedule builds a schedule exercising every encoder branch:
// reserved tiles, all three defect kinds, an unplaced qubit, swap
// braids, negative gate ids, and multi-vertex paths.
func testSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	defects := &grid.DefectMap{
		Tiles:    []int{5},
		Vertices: []int{14},
		Channels: [][2]int{{0, 1}, {1, 8}},
	}
	layers := []sched.Layer{
		{
			{Gate: 0, CtlTile: 0, TgtTile: 3, Path: route.Path{0, 1, 2, 3, 10, 17}},
			{Gate: 1, CtlTile: 8, TgtTile: 10, Path: route.Path{28, 29, 30, 31}, SwapTiles: true},
		},
		{
			{Gate: -1, CtlTile: 2, TgtTile: 2, Path: route.Path{9}},
		},
		{},
	}
	s, err := sched.Assemble(6, 4, []int{11, 23}, defects, 5, []int{0, 3, 8, -1, 10}, layers)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return s
}

func TestBinaryRoundTrip(t *testing.T) {
	s := testSchedule(t)
	wantJSON, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}

	bin, err := Binary.Encode(s)
	if err != nil {
		t.Fatalf("Binary.Encode: %v", err)
	}
	back, err := Binary.Decode(bin)
	if err != nil {
		t.Fatalf("Binary.Decode: %v", err)
	}
	gotJSON, err := sched.EncodeJSON(back)
	if err != nil {
		t.Fatalf("EncodeJSON(round-trip): %v", err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("round-tripped schedule re-encodes differently:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	if len(bin) >= len(wantJSON) {
		t.Errorf("binary (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(wantJSON))
	}
	// Byte stability: encoding the decoded schedule again must match.
	bin2, err := Binary.Encode(back)
	if err != nil {
		t.Fatalf("Binary.Encode(round-trip): %v", err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Errorf("binary encoding not byte-stable across a round trip")
	}
}

func TestBinaryRoundTripMinimal(t *testing.T) {
	s, err := sched.Assemble(2, 2, nil, nil, 1, []int{0}, nil)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bin, err := Binary.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Binary.Decode(bin)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Grid.W != 2 || back.Grid.H != 2 || len(back.Layers) != 0 {
		t.Errorf("minimal schedule mangled: %dx%d, %d layers", back.Grid.W, back.Grid.H, len(back.Layers))
	}
}

func TestDefectMapRoundTrip(t *testing.T) {
	cases := []*grid.DefectMap{
		nil,
		{},
		{Tiles: []int{3, 1, 1}, Vertices: []int{0, 7}, Channels: [][2]int{{5, 4}, {2, 3}, {2, 3}}},
		{Channels: [][2]int{{100, 93}}},
	}
	for i, d := range cases {
		b, err := Binary.EncodeDefects(d)
		if err != nil {
			t.Fatalf("case %d: EncodeDefects: %v", i, err)
		}
		back, err := Binary.DecodeDefects(b)
		if err != nil {
			t.Fatalf("case %d: DecodeDefects: %v", i, err)
		}
		want := d
		if want == nil {
			want = &grid.DefectMap{}
		}
		// Standalone maps must round-trip exactly: order and duplicates.
		wantJSON, _ := grid.EncodeDefects(want)
		gotJSON, _ := grid.EncodeDefects(back)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("case %d: round trip changed map:\nwant %s\ngot  %s", i, wantJSON, gotJSON)
		}
	}
}

func TestDecodeHostileInput(t *testing.T) {
	s := testSchedule(t)
	bin, err := Binary.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(bin); n++ {
		if _, err := Binary.Decode(bin[:n]); err == nil {
			t.Fatalf("truncated input (%d/%d bytes) decoded without error", n, len(bin))
		}
	}
	// Trailing garbage.
	if _, err := Binary.Decode(append(append([]byte(nil), bin...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Wrong magic / kind / version.
	mut := func(idx int, val byte) []byte {
		out := append([]byte(nil), bin...)
		out[idx] = val
		return out
	}
	if _, err := Binary.Decode(mut(0, 'X')); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	if _, err := Binary.Decode(mut(2, 'D')); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("wrong kind: err = %v", err)
	}
	if _, err := Binary.Decode(mut(3, 99)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: err = %v", err)
	}
	// A huge claimed count must be rejected before allocation.
	hostile := header(kindSchedule)
	hostile = append(hostile, 2, 2) // W=2 H=2
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Binary.Decode(hostile); err == nil {
		t.Error("oversized count accepted")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	meta := []byte(`{"latency":3}`)
	if err := StreamSchedule(enc, s, meta); err != nil {
		t.Fatalf("StreamSchedule: %v", err)
	}
	back, gotMeta, err := ReadStream(&buf)
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if !bytes.Equal(gotMeta, meta) {
		t.Errorf("meta = %q, want %q", gotMeta, meta)
	}
	wantJSON, _ := sched.EncodeJSON(s)
	gotJSON, err := sched.EncodeJSON(back)
	if err != nil {
		t.Fatalf("EncodeJSON(streamed): %v", err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("streamed schedule differs from original")
	}
}

func TestStreamIncremental(t *testing.T) {
	// Layers must be decodable frame-by-frame, before the stream ends.
	s := testSchedule(t)
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	if err := enc.Start(s.Grid, s.Initial); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := enc.Layer(s.Layers[0]); err != nil {
		t.Fatalf("Layer: %v", err)
	}
	// Decode what's written so far: header + G + one L, no terminal yet.
	dec := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	f, err := dec.Next()
	if err != nil || f.Kind != FrameGrid {
		t.Fatalf("first frame = %q, %v; want G", f.Kind, err)
	}
	partial, err := DecodeGridFrame(f.Payload)
	if err != nil {
		t.Fatalf("DecodeGridFrame: %v", err)
	}
	if partial.Grid.W != s.Grid.W || partial.Grid.H != s.Grid.H {
		t.Errorf("grid frame dims %dx%d, want %dx%d", partial.Grid.W, partial.Grid.H, s.Grid.W, s.Grid.H)
	}
	f, err = dec.Next()
	if err != nil || f.Kind != FrameLayer {
		t.Fatalf("second frame = %q, %v; want L", f.Kind, err)
	}
	layer, err := DecodeLayerFrame(f.Payload)
	if err != nil {
		t.Fatalf("DecodeLayerFrame: %v", err)
	}
	if len(layer) != len(s.Layers[0]) {
		t.Errorf("layer has %d braids, want %d", len(layer), len(s.Layers[0]))
	}
	if !reflect.DeepEqual([]sched.Braid(layer), []sched.Braid(s.Layers[0])) {
		t.Errorf("layer frame braids differ from source layer")
	}
}

func TestStreamAbort(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	if err := enc.Start(s.Grid, s.Initial); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := enc.Abort("compile exploded"); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	_, _, err := ReadStream(&buf)
	if err == nil || !strings.Contains(err.Error(), "compile exploded") {
		t.Errorf("ReadStream after abort: err = %v", err)
	}
}

func TestStreamTruncated(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	if err := StreamSchedule(enc, s, nil); err != nil {
		t.Fatalf("StreamSchedule: %v", err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 3, 4, 5, len(full) / 2, len(full) - 1} {
		if _, _, err := ReadStream(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncated stream (%d/%d bytes) read without error", n, len(full))
		}
	}
}

func TestBinaryMuchSmallerThanJSON(t *testing.T) {
	// Build a schedule with paper-plausible shape: many layers of long
	// paths. The 40%-of-JSON acceptance bound is asserted on real Table 1
	// circuits at the root package; this pins the same property on a
	// synthetic workload so the wire package stands alone.
	var layers []sched.Layer
	for l := 0; l < 40; l++ {
		var layer sched.Layer
		for b := 0; b < 6; b++ {
			path := make(route.Path, 20)
			path[0] = b * 9
			for i := 1; i < len(path); i++ {
				path[i] = path[i-1] + 1
			}
			layer = append(layer, sched.Braid{Gate: l*6 + b, CtlTile: b, TgtTile: b + 1, Path: path})
		}
		layers = append(layers, layer)
	}
	initial := make([]int, 16)
	for i := range initial {
		initial[i] = i
	}
	s, err := sched.Assemble(16, 16, nil, nil, 16, initial, layers)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bin, err := Binary.Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	js, err := sched.EncodeJSON(s)
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	if ratio := float64(len(bin)) / float64(len(js)); ratio > 0.40 {
		t.Errorf("binary/JSON ratio = %.2f (%d/%d bytes), want <= 0.40", ratio, len(bin), len(js))
	}
}

func ExampleBinary() {
	s, _ := sched.Assemble(2, 2, nil, nil, 1, []int{0}, nil)
	bin, _ := Binary.Encode(s)
	fmt.Println(string(bin[:2]), bin[2:4])
	// Output: HL [83 1]
}
