package qasm

import (
	"fmt"
	"strings"
	"testing"
)

// TestParserErrorPaths drives the less-travelled branches: malformed
// gate definitions, bad expressions, lexer corner cases, and statement
// forms the subset rejects. Every message is pinned word for word. A lex
// error anywhere in the source outranks a parse error before it, so the
// last three cases report the stray character or unterminated string
// that follows the first fault.
func TestParserErrorPaths(t *testing.T) {
	pastMaxGates := fmt.Sprintf("qreg q[%d];\n", MaxQubits) + strings.Repeat("h q;\n", MaxGates/MaxQubits+1) + "$\n"
	cases := []struct {
		name, src, want string
	}{
		{"unterminated gate body", `qreg q[1]; gate foo a { h a;`, `line 1: unterminated gate body for "foo"`},
		{"unknown body arg", `qreg q[1]; gate foo a { h b; }`, `line 1: unknown qubit argument "b" in gate body`},
		{"arity mismatch macro", `qreg q[2]; gate foo a,b { cx a,b; } foo q[0];`, `line 1: gate "foo" wants 2 qubits, got 1`},
		{"param mismatch macro", `qreg q[1]; gate foo(x) a { rz(x) a; } foo q[0];`, `line 1: gate "foo" wants 1 params, got 0`},
		{"recursive macro", `qreg q[1]; gate foo a { foo a; } foo q[0];`, `line 1: gate expansion too deep (recursive definition of "foo"?)`},
		{"bad version header", `OPENQASM two;`, `line 1: expected number, got identifier "two"`},
		{"missing version semi", `OPENQASM 2.0 qreg q[1];`, `line 1: expected ';', got identifier "qreg"`},
		{"include missing string", `include qelib1;`, `line 1: expected string, got identifier "qelib1"`},
		{"unterminated string", "include \"qelib1\nqreg q[1];", `line 1: unterminated string`},
		{"stray equals", `qreg q[1]; h = q[0];`, `line 1: stray '='`},
		{"stray char", `qreg q[1]; h $ q[0];`, `line 1: unexpected character '$'`},
		{"measure missing arrow", `qreg q[1]; creg c[1]; measure q[0] c[0];`, `line 1: expected '->', got identifier "c"`},
		{"measure bad creg index", `qreg q[1]; creg c[1]; measure q[0] -> c[5];`, `line 1: creg index "5" out of range`},
		{"measure size mismatch", `qreg q[2]; creg c[3]; measure q -> c;`, `line 1: measure register size mismatch (2 qubits -> 3 bits)`},
		{"reset unknown reg", `reset nope[0];`, `line 1: unknown qreg "nope"`},
		{"unclosed paren expr", `qreg q[1]; rz(1+ q[0];`, `line 1: unknown identifier "q" in expression`},
		{"sqrt negative", `qreg q[1]; rz(sqrt(0-4)) q[0];`, `line 1: sqrt of negative value`},
		{"ln nonpositive", `qreg q[1]; rz(ln(0)) q[0];`, `line 1: ln of non-positive value`},
		{"unknown function", `qreg q[1]; rz(frob(1)) q[0];`, `line 1: unknown function "frob"`},
		{"infinite param", `qreg q[1]; rz(1e308*10) q[0];`, `line 1: parameter evaluates to +Inf, not a finite number`},
		{"negative infinite param", "qreg q[1];\nrz(-exp(1000)) q[0];", `line 2: parameter evaluates to -Inf, not a finite number`},
		{"nan param", `qreg q[1]; u3(0, 1e308*10-1e308*10, 0) q[0];`, `line 1: parameter evaluates to NaN, not a finite number`},
		{"infinite macro param", "qreg q[1];\ngate foo(x) a {\n  rz(x*x) a;\n}\nfoo(1e200) q[0];", `line 3: parameter evaluates to +Inf, not a finite number`},
		{"barrier missing semi", `qreg q[1]; barrier q`, `line 1: unexpected EOF, missing ';'`},
		{"register index non-number", `qreg q[x];`, `line 1: expected number, got identifier "x"`},
		{"u2 wrong params", `qreg q[1]; u2(1) q[0];`, `line 1: gate "u2" wants 2 params, got 1`},
		{"u3 wrong params", `qreg q[1]; u3(1,2) q[0];`, `line 1: gate "u3" wants 3 params, got 2`},
		{"ccx arity", `qreg q[3]; ccx q[0],q[1];`, `line 1: gate "ccx" wants 3 qubits, got 2`},
		{"repeated operand", `qreg q[3]; ccx q[0],q[1],q[1];`, `line 1: gate "ccx" applied with repeated qubit q[1]`},
		{"gate body missing semi", `qreg q[2]; gate foo a,b { cx a,b }`, `line 1: expected ';', got '}' "}"`},
		{"parse error then stray char", "qreg q[1]; h q[5];\n$", `line 2: unexpected character '$'`},
		{"parse error then unterminated string", "qreg q[1]; h q[5];\ninclude \"qelib1.inc;\n", `line 2: unterminated string`},
		{"past MaxGates then stray char", pastMaxGates, `line 259: unexpected character '$'`},
		{"expression past its term bound", "qreg q[1];\nrz(" + strings.Repeat("-", maxExprTerms) + "1) q[0];",
			`line 2: parameter expression has more than 64 terms`},
		{"macros past the evaluation budget", evalBudgetSource(), `line 2: source evaluates more than 16777216 parameter terms`},
	}
	for _, tc := range cases {
		_, err := Parse("t", tc.src)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if want := "qasm: " + tc.want; err.Error() != want {
			t.Errorf("%s: error %q, want %q", tc.name, err, want)
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

// evalBudgetSource nests gate macros until a source asks for more than
// maxEvalTerms parameter terms: w evaluates 96 terms per application,
// and c applies w 64³ times, 25M terms in all, well inside
// maxApplications and MaxGates.
func evalBudgetSource() string {
	e := "1" + strings.Repeat("+1", maxExprTerms/2-1)
	nest := func(name, inner string) string {
		return "gate " + name + " x { " + strings.Repeat(inner+" x; ", 64) + "}\n"
	}
	return "qreg q[1];\ngate w x { u3(" + e + "," + e + "," + e + ") x; }\n" +
		nest("a", "w") + nest("b", "a") + nest("c", "b") + "c q[0];\n"
}
