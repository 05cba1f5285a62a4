package wire

import (
	"bytes"
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/grid"
	"hilight/internal/route"
	"hilight/internal/sched"
)

// FuzzDecodeWire throws hostile bytes at every binary decode surface —
// the schedule codec, the defect-map codec, and the frame-stream reader.
// Each must reject cleanly (no panic, no runaway allocation), anything
// the schedule decoder accepts must re-encode byte-identically (v1 has
// exactly one encoding per schedule, so decode∘encode is the identity on
// every accepted input), and Validate must return on every schedule
// either schedule path accepts. Run the seed corpus with `go test`;
// extend with `go test -fuzz=FuzzDecodeWire` (wired into `make fuzz`).
func FuzzDecodeWire(f *testing.F) {
	// Valid payloads of all three kinds seed the corpus, so mutations
	// start from deep inside the format rather than dying at the header.
	s, err := sampleSchedule()
	if err != nil {
		f.Fatal(err)
	}
	if bin, err := Binary.Encode(s); err == nil {
		f.Add(bin)
		f.Add(bin[:len(bin)/2])  // truncated mid-payload
		f.Add(append(bin, 0xff)) // trailing garbage
		mut := bytes.Clone(bin)
		mut[3] ^= 0xff // wrong version
		f.Add(mut)
	}
	if db, err := Binary.EncodeDefects(s.Grid.Defects()); err == nil {
		f.Add(db)
	}
	var stream bytes.Buffer
	if err := StreamSchedule(NewStreamEncoder(&stream), s, []byte(`{"ok":true}`)); err == nil {
		f.Add(stream.Bytes())
		f.Add(stream.Bytes()[:stream.Len()-3]) // stream cut before the trailer
	}
	// Schedules whose braids Validate once panicked on: a braid on a
	// tile past the grid, and a one-qubit layout under the two- and
	// three-qubit circuits.
	for _, hostile := range []struct {
		qubits  int
		initial []int
		ctl     int
	}{{2, []int{0, 5}, 99}, {1, []int{0}, 0}} {
		layers := []sched.Layer{{{Gate: 0, CtlTile: hostile.ctl, TgtTile: 5, Path: route.Path{0, 1, 2, 6}}}}
		hs, err := sched.Assemble(3, 2, nil, nil, hostile.qubits, hostile.initial, layers)
		if err != nil {
			f.Fatal(err)
		}
		bin, err := Binary.Encode(hs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	// A 48×48 grid reserving tiles 24, 48, 72, 47: the encoder writes
	// reserved tiles ascending, so this decoded once and re-encoded to
	// other bytes.
	f.Add(unorderedReserved)
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1})
	f.Add([]byte{magic0, magic1, kindSchedule, binaryVersion})
	f.Add([]byte{magic0, magic1, kindDefects, binaryVersion})
	f.Add([]byte{magic0, magic1, kindStream, binaryVersion})
	// A count claiming far more elements than the payload holds: the
	// decoder must bound allocations by the remaining bytes.
	f.Add(append([]byte{magic0, magic1, kindSchedule, binaryVersion}, 0xff, 0xff, 0xff, 0xff, 0x0f))

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Binary.Decode(data); err == nil {
			validateReturns(s)
			out, err := Binary.Encode(s)
			if err != nil {
				t.Fatalf("accepted input failed to re-encode: %v", err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("decode∘encode not identity: %d in, %d out", len(data), len(out))
			}
		}
		if d, err := Binary.DecodeDefects(data); err == nil {
			if _, err := Binary.EncodeDefects(d); err != nil {
				t.Fatalf("accepted defect map failed to re-encode: %v", err)
			}
		}
		// The stream reader consumes the same bytes through the framed
		// path; acceptance only requires a well-formed G L* (E|X) sequence.
		if s, _, err := ReadStream(bytes.NewReader(data)); err == nil && s != nil {
			validateReturns(s)
			if _, err := Binary.Encode(s); err != nil {
				t.Fatalf("reassembled stream schedule failed to encode: %v", err)
			}
		}
	})
}

// validateReturns validates a decoded schedule against CX(0,1) on two
// qubits and CX(0,2) on three, wider than most decoded layouts. The
// decoders leave braids to Validate, so whatever they accept it must
// judge with an error or nil: a panic fails the fuzz target.
func validateReturns(s *sched.Schedule) {
	narrow := circuit.New("narrow", 2)
	narrow.Add2(circuit.CX, 0, 1)
	wide := circuit.New("wide", 3)
	wide.Add2(circuit.CX, 0, 2)
	_ = s.Validate(narrow)
	_ = s.Validate(wide)
}

// sampleSchedule builds a small but branch-covering schedule for the
// seed corpus: defects of all three kinds, a swap braid, an unplaced
// qubit, and an empty layer.
func sampleSchedule() (*sched.Schedule, error) {
	defects := &grid.DefectMap{
		Tiles:    []int{5},
		Vertices: []int{14},
		Channels: [][2]int{{0, 1}},
	}
	layers := []sched.Layer{
		{
			{Gate: 0, CtlTile: 0, TgtTile: 3, Path: route.Path{0, 1, 2, 3}},
			{Gate: -1, CtlTile: 1, TgtTile: 2, Path: route.Path{9, 10}, SwapTiles: true},
		},
		{},
	}
	return sched.Assemble(4, 3, []int{11}, defects, 4, []int{0, 3, -1, 2}, layers)
}
