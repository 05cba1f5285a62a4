package hilight_test

import (
	"errors"
	"strings"
	"testing"

	"hilight"
	"hilight/internal/circuit"
)

// fuzzCircuit decodes a fuzz input into a circuit: data[0] picks 2–8
// qubits, then each byte triple (kind, a, b) appends one gate — a CX,
// a SWAP or a single-qubit H — up to 48 gates.
func fuzzCircuit(data []byte) *hilight.Circuit {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%7
	c := hilight.NewCircuit("fuzz", n)
	for rest := data[1:]; len(rest) >= 3 && len(c.Gates) < 48; rest = rest[3:] {
		a, b := int(rest[1])%n, int(rest[2])%n
		if b == a {
			b = (a + 1) % n
		}
		switch rest[0] % 3 {
		case 0:
			c.Add2(hilight.CX, a, b)
		case 1:
			c.Add2(hilight.SWAP, a, b)
		default:
			c.Add1(hilight.H, a)
		}
	}
	return c
}

// checkCompile compiles c on RectGrid(n+1) with defects injected at
// rate and seed, under every method. Each compile must end in a typed
// ErrUnroutable or ErrInsufficientCapacity that is not the router's
// cycle guard, or in a schedule that validates against its circuit with
// a latency no shorter than the circuit's dependency depth.
func checkCompile(t *testing.T, c *hilight.Circuit, rate float64, seed int64) {
	t.Helper()
	g, _ := hilight.InjectDefects(hilight.RectGrid(c.NumQubits+1), rate, seed)
	for _, m := range hilight.Methods() {
		res, err := hilight.Compile(c, g, hilight.WithMethod(m), hilight.WithSeed(seed))
		if err != nil {
			var unroutable *hilight.ErrUnroutable
			var capacity *hilight.ErrInsufficientCapacity
			switch {
			case errors.As(err, &unroutable) && strings.Contains(err.Error(), "router exceeded"):
				t.Errorf("%s: cycle guard: %v", m, err)
			case !errors.As(err, &unroutable) && !errors.As(err, &capacity):
				t.Errorf("%s: untyped error: %v", m, err)
			}
			continue
		}
		if err := res.Schedule.Validate(res.Circuit); err != nil {
			t.Errorf("%s: invalid schedule: %v", m, err)
			continue
		}
		if _, depth := circuit.Layers(res.Circuit); res.Latency < depth {
			t.Errorf("%s: latency %d below the dependency depth %d", m, res.Latency, depth)
		}
	}
}

// FuzzCompile drives small random circuits over random defect maps
// through every registered method.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{6, 1, 4, 7, 0, 1, 4}, uint8(30), int64(-42)) // TestCompileSwapLivelock
	f.Add([]byte{2, 0, 0, 1, 0, 1, 2, 2, 3, 0, 1, 0, 3}, uint8(0), int64(1))
	f.Add([]byte{5, 0, 0, 5, 1, 2, 3, 0, 6, 1, 2, 4, 4, 0, 2, 6}, uint8(10), int64(7))
	f.Add([]byte{3, 0, 0, 1, 0, 2, 3, 0, 4, 1}, uint8(59), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, rate uint8, seed int64) {
		if c := fuzzCircuit(data); c != nil {
			checkCompile(t, c, float64(rate%60)/100, seed)
		}
	})
}

// TestCompileSwapLivelock pins the first FuzzCompile finding: defects
// disconnect the tiles of a SWAP autobraid-full inserts, so the SWAP
// never routes. The router must report it unroutable instead of
// cycling until its guard trips.
func TestCompileSwapLivelock(t *testing.T) {
	c := hilight.NewCircuit("livelock", 8)
	c.Add2(hilight.SWAP, 4, 7)
	c.Add2(hilight.CX, 1, 4)
	checkCompile(t, c, 0.30, -42)
}
