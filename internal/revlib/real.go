// Package revlib parses the RevLib ".real" reversible-circuit format —
// the native format of the paper's building-block benchmarks (4gt11_82,
// sqrt8_260, urf*, ...; Wille et al., ISMVL 2008). Supporting the real
// files lets users run the actual RevLib suite through the mapper instead
// of the calibrated synthetic stand-ins in internal/bench.
//
// Supported subset (what the benchmark corpus uses):
//
//	.version / .mode / comments (#)  — ignored
//	.numvars N                       — qubit count
//	.variables a b c ...             — variable names, in qubit order
//	.inputs / .outputs / .constants / .garbage — recorded but unused
//	.begin ... .end                  — the gate list
//	t1 a          — NOT (X) on a
//	t2 a b        — CNOT with control a, target b
//	tN c1 .. t    — Toffoli with N−1 controls, decomposed recursively
//	f2 a b        — swap (Fredkin family f3 = controlled swap)
//	f3 c a b      — controlled swap, decomposed to CX + Toffoli
//	v/v+ lines    — controlled-V gates, mapped to the CX skeleton
//
// Multi-control Toffolis (t3 and above) expand with the standard
// no-ancilla recursive construction into the 6-CX t3 network, exactly as
// the compilation flows the paper builds on do.
package revlib

import (
	"fmt"
	"strings"

	"hilight/internal/circuit"
)

// Parse reads .real source and returns the expanded circuit.
func Parse(name, src string) (*circuit.Circuit, error) {
	p := &parser{vars: map[string]int{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("revlib: line %d: %w", lineNo+1, err)
		}
	}
	if p.circ == nil {
		return nil, fmt.Errorf("revlib: missing .numvars declaration")
	}
	if !p.ended && p.begun {
		return nil, fmt.Errorf("revlib: missing .end")
	}
	p.circ.Name = name
	return p.circ, nil
}

type parser struct {
	circ  *circuit.Circuit
	vars  map[string]int
	begun bool
	ended bool
}

func (p *parser) line(line string) error {
	fields := strings.Fields(line)
	key := strings.ToLower(fields[0])
	switch {
	case key == ".version", key == ".mode", key == ".inputbus", key == ".outputbus":
		return nil
	case key == ".numvars":
		if len(fields) != 2 {
			return fmt.Errorf(".numvars wants one argument")
		}
		var n int
		if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n <= 0 {
			return fmt.Errorf("bad .numvars %q", fields[1])
		}
		p.circ = circuit.New("", n)
		return nil
	case key == ".variables":
		if p.circ == nil {
			return fmt.Errorf(".variables before .numvars")
		}
		if len(fields)-1 != p.circ.NumQubits {
			return fmt.Errorf(".variables lists %d names for %d qubits", len(fields)-1, p.circ.NumQubits)
		}
		for i, v := range fields[1:] {
			if _, dup := p.vars[v]; dup {
				return fmt.Errorf("variable %q repeated", v)
			}
			p.vars[v] = i
		}
		return nil
	case key == ".inputs", key == ".outputs", key == ".constants", key == ".garbage":
		return nil
	case key == ".begin":
		if p.circ == nil {
			return fmt.Errorf(".begin before .numvars")
		}
		p.begun = true
		return nil
	case key == ".end":
		p.ended = true
		return nil
	}
	if !p.begun || p.ended {
		return fmt.Errorf("gate %q outside .begin/.end", line)
	}
	return p.gate(fields)
}

// resolve maps a variable token to its qubit index.
func (p *parser) resolve(tok string) (int, error) {
	if q, ok := p.vars[tok]; ok {
		return q, nil
	}
	// Files without .variables use x0, x1, ... or bare indices.
	var q int
	if _, err := fmt.Sscanf(tok, "x%d", &q); err == nil && q >= 0 && q < p.circ.NumQubits {
		return q, nil
	}
	if _, err := fmt.Sscanf(tok, "%d", &q); err == nil && q >= 0 && q < p.circ.NumQubits {
		return q, nil
	}
	return 0, fmt.Errorf("unknown variable %q", tok)
}

func (p *parser) operands(toks []string) ([]int, error) {
	out := make([]int, len(toks))
	seen := map[int]bool{}
	for i, tok := range toks {
		q, err := p.resolve(tok)
		if err != nil {
			return nil, err
		}
		if seen[q] {
			return nil, fmt.Errorf("operand %q repeated", tok)
		}
		seen[q] = true
		out[i] = q
	}
	return out, nil
}

func (p *parser) gate(fields []string) error {
	kind := strings.ToLower(fields[0])
	ops, err := p.operands(fields[1:])
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(kind, "t"):
		var n int
		if _, err := fmt.Sscanf(kind, "t%d", &n); err != nil || n < 1 {
			return fmt.Errorf("bad gate %q", kind)
		}
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", kind, n, len(ops))
		}
		p.circ.AddMCX(ops[:n-1], ops[n-1])
		return nil
	case strings.HasPrefix(kind, "f"):
		var n int
		if _, err := fmt.Sscanf(kind, "f%d", &n); err != nil || n < 2 {
			return fmt.Errorf("bad gate %q", kind)
		}
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", kind, n, len(ops))
		}
		// fN: swap the last two lines under N−2 controls.
		a, b := ops[n-2], ops[n-1]
		controls := ops[:n-2]
		// CSWAP(c...; a,b) = CX(b,a) · Toffoli(c...,a; b) · CX(b,a).
		p.circ.Add2(circuit.CX, b, a)
		p.circ.AddMCX(append(append([]int{}, controls...), a), b)
		p.circ.Add2(circuit.CX, b, a)
		return nil
	case kind == "v", kind == "v+":
		// Controlled-V (square root of X): braiding sees its CX skeleton.
		if len(ops) != 2 {
			return fmt.Errorf("%s wants 2 operands", kind)
		}
		p.circ.Add2(circuit.CX, ops[0], ops[1])
		return nil
	}
	return fmt.Errorf("unsupported gate %q", fields[0])
}
