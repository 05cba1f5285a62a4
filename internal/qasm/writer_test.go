package qasm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hilight/internal/bench"
	"hilight/internal/circuit"
)

// fmtFormat is the reference writer: the fmt rendering Append replaced,
// kept so every byte Append writes, and so every fingerprint, is checked
// against it.
func fmtFormat(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	if c.NumQubits > 0 {
		fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	}
	hasMeasure := false
	for _, g := range c.Gates {
		if g.Kind == circuit.Measure {
			hasMeasure = true
			break
		}
	}
	if hasMeasure {
		fmt.Fprintf(&b, "creg c[%d];\n", c.NumQubits)
	}
	for _, g := range c.Gates {
		switch {
		case g.Kind == circuit.Measure:
			fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", g.Q0, g.Q0)
		case g.Kind == circuit.Reset:
			fmt.Fprintf(&b, "reset q[%d];\n", g.Q0)
		case g.TwoQubit():
			fmt.Fprintf(&b, "%s q[%d],q[%d];\n", g.Kind, g.Q0, g.Q1)
		case g.Kind.Parameterized():
			switch g.Kind {
			case circuit.U2:
				fmt.Fprintf(&b, "u2(%.17g,%.17g) q[%d];\n", g.Params[0], g.Params[1], g.Q0)
			case circuit.U3:
				fmt.Fprintf(&b, "u3(%.17g,%.17g,%.17g) q[%d];\n", g.Params[0], g.Params[1], g.Params[2], g.Q0)
			default:
				fmt.Fprintf(&b, "%s(%.17g) q[%d];\n", g.Kind, g.Params[0], g.Q0)
			}
		default:
			fmt.Fprintf(&b, "%s q[%d];\n", g.Kind, g.Q0)
		}
	}
	return b.String()
}

// checkFormat fails t unless Format writes exactly fmtFormat's bytes.
func checkFormat(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	if got, want := Format(c), fmtFormat(c); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: Format differs from the fmt writer at byte %d:\n got %q\nwant %q",
			c.Name, i, got[i:min(len(got), i+60)], want[i:min(len(want), i+60)])
	}
}

// specialFloats are the parameters whose %.17g spelling is easiest to
// get wrong: signed zero, both infinities, NaN, the smallest subnormal
// and the extremes of the exponent range.
var specialFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
	1, 0.1, 1e21, 1e-7, 123456789012345678, math.Pi, -math.Pi / 1024,
}

// randomCircuit draws a circuit over every gate kind with parameters
// from specialFloats, random bit patterns and normal draws.
func randomCircuit(rng *rand.Rand, name string) *circuit.Circuit {
	n := 2 + rng.Intn(30)
	c := circuit.New(name, n)
	param := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return specialFloats[rng.Intn(len(specialFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for i, gates := 0, rng.Intn(40); i < gates; i++ {
		k := circuit.I + circuit.Kind(rng.Intn(int(circuit.SWAP-circuit.I)+1))
		if k.TwoQubit() {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			c.Add2(k, a, b)
			continue
		}
		g := circuit.NewGate1(k, rng.Intn(n))
		if k.Parameterized() {
			for j := range g.Params[:paramCount(k)] {
				g.Params[j] = param()
			}
		}
		c.Append(g)
	}
	return c
}

// TestFormatMatchesFmtWriter holds Append to the fmt writer's bytes on
// every Table 1 circuit and on random circuits over every gate kind.
func TestFormatMatchesFmtWriter(t *testing.T) {
	for _, e := range bench.Table1() {
		if testing.Short() && e.Gates > 50000 {
			continue
		}
		checkFormat(t, e.Build())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkFormat(t, randomCircuit(rng, fmt.Sprintf("random-%d", i)))
	}
	checkFormat(t, circuit.New("empty", 0))
}

// TestWriteMatchesFormat checks that Write and Format emit the same
// bytes.
func TestWriteMatchesFormat(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(2)), "w")
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		t.Fatal(err)
	}
	if b.String() != Format(c) {
		t.Fatalf("Write wrote %q, Format %q", b.String(), Format(c))
	}
}
