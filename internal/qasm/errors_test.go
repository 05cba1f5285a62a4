package qasm

import (
	"fmt"
	"strings"
	"testing"
)

// TestParserErrorPaths drives the less-travelled branches: malformed
// gate definitions, bad expressions, lexer corner cases, and statement
// forms the subset rejects.
func TestParserErrorPaths(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unterminated gate body", `qreg q[1]; gate foo a { h a;`, "unterminated"},
		{"unknown body arg", `qreg q[1]; gate foo a { h b; }`, "unknown qubit argument"},
		{"arity mismatch macro", `qreg q[2]; gate foo a,b { cx a,b; } foo q[0];`, "wants 2 qubits"},
		{"param mismatch macro", `qreg q[1]; gate foo(x) a { rz(x) a; } foo q[0];`, "wants 1 params"},
		{"recursive macro", `qreg q[1]; gate foo a { foo a; } foo q[0];`, "too deep"},
		{"bad version header", `OPENQASM two;`, "expected number"},
		{"missing version semi", `OPENQASM 2.0 qreg q[1];`, "expected ';'"},
		{"include missing string", `include qelib1;`, "expected string"},
		{"unterminated string", "include \"qelib1\nqreg q[1];", "unterminated string"},
		{"stray equals", `qreg q[1]; h = q[0];`, "stray '='"},
		{"stray char", `qreg q[1]; h $ q[0];`, "unexpected character"},
		{"measure missing arrow", `qreg q[1]; creg c[1]; measure q[0] c[0];`, "expected '->'"},
		{"measure bad creg index", `qreg q[1]; creg c[1]; measure q[0] -> c[5];`, "out of range"},
		{"measure size mismatch", `qreg q[2]; creg c[3]; measure q -> c;`, "mismatch"},
		{"reset unknown reg", `reset nope[0];`, "unknown qreg"},
		{"unclosed paren expr", `qreg q[1]; rz(1+ q[0];`, "unknown identifier"},
		{"sqrt negative", `qreg q[1]; rz(sqrt(0-4)) q[0];`, "sqrt of negative"},
		{"ln nonpositive", `qreg q[1]; rz(ln(0)) q[0];`, "ln of non-positive"},
		{"unknown function", `qreg q[1]; rz(frob(1)) q[0];`, "unknown function"},
		{"barrier missing semi", `qreg q[1]; barrier q`, "missing ';'"},
		{"register index non-number", `qreg q[x];`, "expected number"},
		{"u2 wrong params", `qreg q[1]; u2(1) q[0];`, "wants 2 params"},
		{"u3 wrong params", `qreg q[1]; u3(1,2) q[0];`, "wants 3 params"},
		{"ccx arity", `qreg q[3]; ccx q[0],q[1];`, "wants 3 qubits"},
		{"repeated operand", `qreg q[3]; ccx q[0],q[1],q[1];`, "repeated qubit"},
		{"gate body missing semi", `qreg q[2]; gate foo a,b { cx a,b }`, "expected ';'"},
	}
	for _, tc := range cases {
		_, err := Parse("t", tc.src)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestParserAcceptsEdgeForms drives accepting paths that the main tests
// skip: scientific-notation numbers, nested parens, unary plus, empty
// programs, and U as a u3 alias.
func TestParserAcceptsEdgeForms(t *testing.T) {
	cases := []string{
		``,
		`// only a comment`,
		`OPENQASM 2.0;`,
		`qreg q[1]; rz(1e-3) q[0];`,
		`qreg q[1]; rz(1.5E+2) q[0];`,
		`qreg q[1]; rz(+(2)) q[0];`,
		`qreg q[1]; rz(((1))) q[0];`,
		`qreg q[1]; U(0.1,0.2,0.3) q[0];`,
		`qreg q[1]; rz(cos(0)+tan(0)+exp(0)) q[0];`,
		`qreg q[2]; CX q[0],q[1];`,
		`qreg q[2]; cnot q[0],q[1];`,
		`qreg q[2]; cp(0.5) q[0],q[1];`,
		`qreg q[2]; cu3(1,2,3) q[0],q[1];`,
		`qreg q[2]; gate noop a { } noop q[0];`,
	}
	for i, src := range cases {
		c, err := Parse("t", src)
		if err != nil {
			t.Errorf("case %d rejected: %v\n%s", i, err, src)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("case %d invalid: %v", i, err)
		}
	}
}

// TestParserExpansionBounds pins the hostile-input bounds: declared
// qubits past MaxQubits, emitted gates past MaxGates and gate
// applications past maxApplications each fail with the bound named,
// while a register of exactly MaxQubits qubits parses.
func TestParserExpansionBounds(t *testing.T) {
	c, err := Parse("t", fmt.Sprintf("qreg q[%d]; h q[%d];", MaxQubits, MaxQubits-1))
	if err != nil || c.NumQubits != MaxQubits {
		t.Fatalf("register of %d qubits: %v", MaxQubits, err)
	}
	if _, err := Parse("t", fmt.Sprintf("qreg a[%d]; qreg b[%d];", MaxQubits-1, MaxQubits-1)); err == nil || err.Error() != "qasm: line 1: qreg b[4095] declares more than 4096 qubits in all" {
		t.Errorf("two registers past the bound: %v", err)
	}
	if _, err := Parse("t", "qreg q[1000000];"); err == nil || !strings.Contains(err.Error(), "more than 4096 qubits") {
		t.Errorf("wide register: %v", err)
	}

	// 256 broadcasts over 4096 qubits emit exactly MaxGates gates, and one
	// measure past them fails on the line that passes the bound.
	src := fmt.Sprintf("qreg q[%d];\n", MaxQubits) + strings.Repeat("h q;\n", MaxGates/MaxQubits)
	c, err = Parse("t", src)
	if err != nil || len(c.Gates) != MaxGates {
		t.Fatalf("%d gates: %v", MaxGates, err)
	}
	_, err = Parse("t", src+"creg c[1];\nmeasure q[0] -> c[0];\n")
	if want := fmt.Sprintf("qasm: line %d: source emits more than %d gates", MaxGates/MaxQubits+3, MaxGates); err == nil || err.Error() != want {
		t.Errorf("one gate past the bound: %v, want %s", err, want)
	}

	// Nested macros with an empty innermost body emit nothing, yet apply
	// 2^64 times.
	var nest strings.Builder
	nest.WriteString("qreg q[1];\ngate g0 a { }\n")
	for i := 1; i <= 64; i++ {
		fmt.Fprintf(&nest, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	nest.WriteString("g64 q[0];\n")
	if _, err := Parse("t", nest.String()); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d gates, counting macro applications", maxApplications)) {
		t.Errorf("macro nest: %v", err)
	}
}
