package sched

import (
	"testing"

	"hilight/internal/circuit"
)

// FuzzDecodeJSON checks that the schedule decoder never panics on hostile
// input, that everything it accepts re-encodes through AppendJSON to
// encoding/json's bytes (checkAppendJSON), that Validate returns on it
// (checkValidateReturns), and that it survives an encode/decode round
// trip with the same shape. Run the seed corpus with `go test`; extend
// with `go test -fuzz=FuzzDecodeJSON`.
func FuzzDecodeJSON(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"version":1}`,
		`{"version":2,"grid_w":2,"grid_h":2,"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":0,"initial":[],"layers":[]}`,
		`{"version":1,"grid_w":3,"grid_h":2,"qubits":2,"initial":[0,5],"layers":[[{"gate":0,"ctl":0,"tgt":5,"path":[0,1,2,6]}]]}`,
		// A braid on a tile past the grid.
		`{"version":1,"grid_w":3,"grid_h":2,"qubits":2,"initial":[0,5],"layers":[[{"gate":0,"ctl":99,"tgt":5,"path":[0,1,2,6]}]]}`,
		// A layout of one qubit under circuits of two and three.
		`{"version":1,"grid_w":3,"grid_h":2,"qubits":1,"initial":[0],"layers":[[{"gate":0,"ctl":0,"tgt":5,"path":[0,1,2,6]}]]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":1,"initial":[9]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":2,"initial":[0,0]}`,
		`{"version":1,"grid_w":-1,"grid_h":2,"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"reserved":[99],"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":0,"initial":[],"defects":{"tiles":[3]}}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":0,"initial":[],"defects":{"tiles":[99]}}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":0,"initial":[],"defects":{"channels":[[0,8]]}}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":1,"initial":[3],"defects":{"tiles":[3]}}`,
		`{"version":1,"grid_w":1000000,"grid_h":1000000,"qubits":0,"initial":[]}`,
		`{"version":1,"grid_w":2,"grid_h":2,"qubits":-5,"initial":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeJSON(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		checkAppendJSON(t, s)
		checkValidateReturns(s)
		out, err := EncodeJSON(s)
		if err != nil {
			t.Fatalf("accepted schedule failed to encode: %v", err)
		}
		s2, err := DecodeJSON(out)
		if err != nil {
			t.Fatalf("encoder output undecodable: %v\n%s", err, out)
		}
		if len(s2.Layers) != len(s.Layers) {
			t.Fatalf("round trip changed layer count %d -> %d", len(s.Layers), len(s2.Layers))
		}
		for i := range s.Layers {
			if len(s2.Layers[i]) != len(s.Layers[i]) {
				t.Fatalf("round trip changed layer %d braid count %d -> %d", i, len(s.Layers[i]), len(s2.Layers[i]))
			}
		}
		if s2.Grid.W != s.Grid.W || s2.Grid.H != s.Grid.H {
			t.Fatalf("round trip changed grid %v -> %v", s.Grid, s2.Grid)
		}
	})
}

// checkValidateReturns validates a decoded schedule against CX(0,1) on
// two qubits and CX(0,2) on three, wider than most decoded layouts. The
// decoders leave braids to Validate, so whatever they accept it must
// judge with an error or nil: a panic fails the fuzz target.
func checkValidateReturns(s *Schedule) {
	narrow := circuit.New("narrow", 2)
	narrow.Add2(circuit.CX, 0, 1)
	wide := circuit.New("wide", 3)
	wide.Add2(circuit.CX, 0, 2)
	_ = s.Validate(narrow)
	_ = s.Validate(wide)
}
