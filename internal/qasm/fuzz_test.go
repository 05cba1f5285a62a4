package qasm

import (
	"testing"

	"hilight/internal/circuit"
)

// FuzzParse checks that the parser never panics and that everything it
// accepts is a valid circuit whose writer output matches the fmt
// reference writer and re-parses. Run the seed corpus with `go test`;
// extend with `go test -fuzz=FuzzParse`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		``,
		`OPENQASM 2.0;`,
		`qreg q[3]; h q; cx q[0],q[1];`,
		`qreg a[2]; qreg b[2]; cx a,b;`,
		`qreg q[2]; gate foo(x) a,b { rz(x/2) a; cx a,b; } foo(pi) q[0],q[1];`,
		`qreg q[3]; ccx q[0],q[1],q[2];`,
		`qreg q[1]; rz(2*pi-1/4) q[0];`,
		`qreg q[2]; creg c[2]; measure q -> c;`,
		`qreg q[1]; barrier q; reset q[0];`,
		`// comment only`,
		`qreg q[1]; u3(0.1,0.2,0.3) q[0];`,
		`qreg q[2]; swap q[0],q[1];`,
		`qreg q[9999999999];`,
		`qreg q[2]; cx q[0],q[0];`,
		`gate rec a { rec a; } qreg q[1]; rec q[0];`,
		"qreg q[1]; rz(\x00) q[0];",
		`qreg q[1]; h q[0]`,
		`qreg q[1]; rz(1e308*10) q[0];`,
		`qreg q[1]; rz(1e308*10-1e308*10) q[0];`,
		`qreg q[1]; gate g(x) a { rz(x*1e300) a; } g(1e300) q[0];`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse("fuzz", src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted invalid circuit: %v", err)
		}
		checkFormat(t, c)
		// Writer output must re-parse to the same gate count.
		c2, err := Parse("fuzz2", Format(c))
		if err != nil {
			t.Fatalf("writer output unparseable: %v\n%s", err, Format(c))
		}
		if c2.Len() != c.Len() {
			t.Fatalf("round trip changed gate count %d -> %d", c.Len(), c2.Len())
		}
	})
}

// FuzzGateStream decodes random bytes into small H/T/CX circuits and
// checks that the writer's output matches the fmt reference writer and
// re-parses to the same gate count.
func FuzzGateStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 5
		c := circuit.New("fuzz", n)
		for i := 0; i+1 < len(data); i += 2 {
			a := int(data[i]) % n
			b := int(data[i+1]) % n
			switch data[i] % 3 {
			case 0:
				c.Add1(circuit.H, a)
			case 1:
				c.Add1(circuit.T, a)
			default:
				if a != b {
					c.Add2(circuit.CX, a, b)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		checkFormat(t, c)
		out := Format(c)
		c2, err := Parse("fuzz", out)
		if err != nil || c2.Len() != c.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
