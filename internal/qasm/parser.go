package qasm

import (
	"fmt"
	"math"
	"strconv"

	"hilight/internal/circuit"
)

// maxExpandDepth bounds recursive gate-macro expansion; OpenQASM 2.0 gate
// definitions cannot legally recurse, so hitting the bound means a cycle.
const maxExpandDepth = 64

// Bounds on what a source may expand to, checked as registers are
// declared and gates are applied, so a short hostile source fails before
// it allocates past them: a register broadcast or a nest of gate macros
// multiplies a few bytes of source into millions of gates, and every
// compile analysis is at least quadratic in the qubit count.
const (
	// MaxQubits bounds the qubits declared over all quantum registers; a
	// compile at the bound allocates about 256 MiB.
	MaxQubits = 4096
	// MaxGates bounds the gates a source emits; all 36 Table 1 circuits
	// together have 707,027.
	MaxGates = 1 << 20
	// maxApplications bounds gate applications, macro and built-in: a
	// nest of gate macros with empty bodies applies without emitting.
	maxApplications = 2 * MaxGates
)

// Parse reads OpenQASM 2.0 source and returns the flattened circuit. All
// quantum registers are concatenated into one program-qubit index space in
// declaration order. Custom gate definitions are expanded; two-qubit
// library gates without a dedicated IR kind (cy, ch, crz, cu1, cu3) map to
// CX because braiding treats every two-qubit gate identically, and ccx is
// expanded into its standard 6-CX Clifford+T decomposition.
func Parse(name, src string) (*circuit.Circuit, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	p := &parser{
		toks:  toks,
		circ:  circuit.New(name, 0),
		qregs: map[string]reg{},
		cregs: map[string]reg{},
		gates: map[string]*gateDef{},
	}
	if err := p.parseProgram(); err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	return p.circ, nil
}

type reg struct {
	offset, size int
}

// gateDef is a user gate definition awaiting macro expansion.
type gateDef struct {
	name     string
	params   []string
	args     []string
	body     []bodyStmt
	opaque   bool
	declined bool // opaque or unsupported: applications are errors
}

// bodyStmt is one application inside a gate body: a gate name, parameter
// expressions over the formal params, and formal qubit argument indices.
type bodyStmt struct {
	name   string
	params []expr
	args   []int // indices into the enclosing def's args
	line   int
}

type parser struct {
	toks    []token
	pos     int
	circ    *circuit.Circuit
	qregs   map[string]reg
	cregs   map[string]reg
	gates   map[string]*gateDef
	order   []string // qreg declaration order, for deterministic flattening
	applied int      // gate applications so far, against maxApplications
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) advance() token {
	tk := p.toks[p.pos]
	if tk.kind != tokEOF {
		p.pos++
	}
	return tk
}

func (p *parser) expect(k tokenKind) (token, error) {
	tk := p.advance()
	if tk.kind != k {
		return tk, fmt.Errorf("line %d: expected %v, got %v %q", tk.line, k, tk.kind, tk.text)
	}
	return tk, nil
}

func (p *parser) parseProgram() error {
	// Optional version header.
	if tk := p.peek(); tk.kind == tokIdent && isKeyword(tk.text) && tk.text == "OPENQASM" {
		p.advance()
		if _, err := p.expect(tokNumber); err != nil {
			return err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return err
		}
	}
	for {
		tk := p.peek()
		switch {
		case tk.kind == tokEOF:
			return nil
		case tk.kind == tokIdent && tk.text == "include":
			p.advance()
			if _, err := p.expect(tokString); err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "qreg":
			if err := p.parseReg(p.qregs, true); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "creg":
			if err := p.parseReg(p.cregs, false); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "gate":
			if err := p.parseGateDef(false); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "opaque":
			if err := p.parseGateDef(true); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "if":
			return fmt.Errorf("line %d: classical control (if) is not supported: braiding schedules are static", tk.line)
		case tk.kind == tokIdent && tk.text == "barrier":
			p.advance()
			if err := p.skipToSemi(); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "measure":
			if err := p.parseMeasure(); err != nil {
				return err
			}
		case tk.kind == tokIdent && tk.text == "reset":
			p.advance()
			qs, err := p.parseQubitOperand()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return err
			}
			for _, q := range qs {
				p.circ.Add1(circuit.Reset, q)
			}
			if err := p.checkGates(tk.line); err != nil {
				return err
			}
		case tk.kind == tokIdent:
			if err := p.parseApplication(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: unexpected token %v %q", tk.line, tk.kind, tk.text)
		}
	}
}

func (p *parser) skipToSemi() error {
	for {
		tk := p.advance()
		switch tk.kind {
		case tokSemi:
			return nil
		case tokEOF:
			return fmt.Errorf("line %d: unexpected EOF, missing ';'", tk.line)
		}
	}
}

func (p *parser) parseReg(regs map[string]reg, quantum bool) error {
	p.advance() // qreg / creg
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBracket); err != nil {
		return err
	}
	szTok, err := p.expect(tokNumber)
	if err != nil {
		return err
	}
	size, err := strconv.Atoi(szTok.text)
	if err != nil || size <= 0 {
		return fmt.Errorf("line %d: bad register size %q", szTok.line, szTok.text)
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	if _, dup := regs[name.text]; dup {
		return fmt.Errorf("line %d: register %q redeclared", name.line, name.text)
	}
	if quantum {
		if size > MaxQubits-p.circ.NumQubits {
			return fmt.Errorf("line %d: qreg %s[%d] declares more than %d qubits in all", szTok.line, name.text, size, MaxQubits)
		}
		regs[name.text] = reg{offset: p.circ.NumQubits, size: size}
		p.circ.NumQubits += size
		p.order = append(p.order, name.text)
	} else {
		regs[name.text] = reg{size: size}
	}
	return nil
}

// parseGateDef parses `gate name(p,...) a,b,... { body }` or an opaque
// declaration (terminated by ';'). Opaque gates are recorded but their
// application is an error.
func (p *parser) parseGateDef(opaque bool) error {
	p.advance() // gate / opaque
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	def := &gateDef{name: name.text, opaque: opaque, declined: opaque}
	if p.peek().kind == tokLParen {
		p.advance()
		for p.peek().kind != tokRParen {
			id, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			def.params = append(def.params, id.text)
			if p.peek().kind == tokComma {
				p.advance()
			}
		}
		p.advance() // )
	}
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		def.args = append(def.args, id.text)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if opaque {
		if _, err := p.expect(tokSemi); err != nil {
			return err
		}
		p.gates[def.name] = def
		return nil
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	argIndex := map[string]int{}
	for i, a := range def.args {
		argIndex[a] = i
	}
	paramSet := map[string]bool{}
	for _, q := range def.params {
		paramSet[q] = true
	}
	for p.peek().kind != tokRBrace {
		tk := p.peek()
		if tk.kind == tokEOF {
			return fmt.Errorf("line %d: unterminated gate body for %q", name.line, name.text)
		}
		if tk.kind == tokIdent && tk.text == "barrier" {
			p.advance()
			if err := p.skipToSemi(); err != nil {
				return err
			}
			continue
		}
		stmt, err := p.parseBodyStmt(argIndex, paramSet)
		if err != nil {
			return err
		}
		def.body = append(def.body, stmt)
	}
	p.advance() // }
	p.gates[def.name] = def
	return nil
}

func (p *parser) parseBodyStmt(argIndex map[string]int, params map[string]bool) (bodyStmt, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return bodyStmt{}, err
	}
	st := bodyStmt{name: name.text, line: name.line}
	if p.peek().kind == tokLParen {
		p.advance()
		for p.peek().kind != tokRParen {
			e, err := p.parseExpr(params)
			if err != nil {
				return bodyStmt{}, err
			}
			st.params = append(st.params, e)
			if p.peek().kind == tokComma {
				p.advance()
			}
		}
		p.advance()
	}
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return bodyStmt{}, err
		}
		idx, ok := argIndex[id.text]
		if !ok {
			return bodyStmt{}, fmt.Errorf("line %d: unknown qubit argument %q in gate body", id.line, id.text)
		}
		st.args = append(st.args, idx)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi); err != nil {
		return bodyStmt{}, err
	}
	return st, nil
}

func (p *parser) parseMeasure() error {
	p.advance() // measure
	qs, err := p.parseQubitOperand()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return err
	}
	// Classical destination: name or name[i]; validated then discarded.
	cname, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	creg, ok := p.cregs[cname.text]
	if !ok {
		return fmt.Errorf("line %d: unknown creg %q", cname.line, cname.text)
	}
	if p.peek().kind == tokLBracket {
		p.advance()
		idxTok, err := p.expect(tokNumber)
		if err != nil {
			return err
		}
		idx, err := strconv.Atoi(idxTok.text)
		if err != nil || idx < 0 || idx >= creg.size {
			return fmt.Errorf("line %d: creg index %q out of range", idxTok.line, idxTok.text)
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return err
		}
	} else if len(qs) != creg.size {
		return fmt.Errorf("line %d: measure register size mismatch (%d qubits -> %d bits)", cname.line, len(qs), creg.size)
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	for _, q := range qs {
		p.circ.Add1(circuit.Measure, q)
	}
	return p.checkGates(cname.line)
}

// checkGates fails once the circuit holds more than MaxGates gates.
func (p *parser) checkGates(line int) error {
	if len(p.circ.Gates) > MaxGates {
		return fmt.Errorf("line %d: source emits more than %d gates", line, MaxGates)
	}
	return nil
}

// parseQubitOperand parses `name` (whole register) or `name[i]` and
// returns the flattened qubit indices it denotes.
func (p *parser) parseQubitOperand() ([]int, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	r, ok := p.qregs[name.text]
	if !ok {
		return nil, fmt.Errorf("line %d: unknown qreg %q", name.line, name.text)
	}
	if p.peek().kind == tokLBracket {
		p.advance()
		idxTok, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		idx, err := strconv.Atoi(idxTok.text)
		if err != nil || idx < 0 || idx >= r.size {
			return nil, fmt.Errorf("line %d: index %q out of range for %q[%d]", idxTok.line, idxTok.text, name.text, r.size)
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		return []int{r.offset + idx}, nil
	}
	out := make([]int, r.size)
	for i := range out {
		out[i] = r.offset + i
	}
	return out, nil
}

// parseApplication parses a top-level gate application, broadcasting over
// whole registers when operands are unindexed.
func (p *parser) parseApplication() error {
	name := p.advance()
	var params []float64
	if p.peek().kind == tokLParen {
		p.advance()
		for p.peek().kind != tokRParen {
			e, err := p.parseExpr(nil)
			if err != nil {
				return err
			}
			v, err := e.eval(nil)
			if err != nil {
				return fmt.Errorf("line %d: %w", name.line, err)
			}
			params = append(params, v)
			if p.peek().kind == tokComma {
				p.advance()
			}
		}
		p.advance()
	}
	var operands [][]int
	for {
		qs, err := p.parseQubitOperand()
		if err != nil {
			return err
		}
		operands = append(operands, qs)
		if p.peek().kind != tokComma {
			break
		}
		p.advance()
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	return p.broadcast(name.text, name.line, params, operands, 0)
}

// broadcast applies a gate over operand lists: when any operand is a full
// register, all full-register operands must have the same length and the
// gate is applied element-wise, with scalar operands repeated.
func (p *parser) broadcast(name string, line int, params []float64, operands [][]int, depth int) error {
	width := 1
	for _, op := range operands {
		if len(op) > 1 {
			if width > 1 && len(op) != width {
				return fmt.Errorf("line %d: register-size mismatch in %q broadcast", line, name)
			}
			width = len(op)
		}
	}
	for i := 0; i < width; i++ {
		qs := make([]int, len(operands))
		for j, op := range operands {
			if len(op) == 1 {
				qs[j] = op[0]
			} else {
				qs[j] = op[i]
			}
		}
		if err := p.apply(name, line, params, qs, depth); err != nil {
			return err
		}
	}
	return nil
}

// apply emits one concrete gate application, expanding user macros.
func (p *parser) apply(name string, line int, params []float64, qs []int, depth int) error {
	if depth > maxExpandDepth {
		return fmt.Errorf("line %d: gate expansion too deep (recursive definition of %q?)", line, name)
	}
	if p.applied++; p.applied > maxApplications {
		return fmt.Errorf("line %d: source applies more than %d gates, counting macro applications", line, maxApplications)
	}
	// OpenQASM forbids repeated qubit operands in any application.
	for i := range qs {
		for j := i + 1; j < len(qs); j++ {
			if qs[i] == qs[j] {
				return fmt.Errorf("line %d: gate %q applied with repeated qubit q[%d]", line, name, qs[i])
			}
		}
	}
	if def, ok := p.gates[name]; ok {
		if def.declined {
			return fmt.Errorf("line %d: opaque gate %q cannot be applied", line, name)
		}
		if len(qs) != len(def.args) {
			return fmt.Errorf("line %d: gate %q wants %d qubits, got %d", line, name, len(def.args), len(qs))
		}
		if len(params) != len(def.params) {
			return fmt.Errorf("line %d: gate %q wants %d params, got %d", line, name, len(def.params), len(params))
		}
		var env map[string]float64 // parameter-free bodies look nothing up
		if len(def.params) > 0 {
			env = make(map[string]float64, len(def.params))
			for i, pn := range def.params {
				env[pn] = params[i]
			}
		}
		for _, st := range def.body {
			sub := make([]float64, len(st.params))
			for i, e := range st.params {
				v, err := e.eval(env)
				if err != nil {
					return fmt.Errorf("line %d: %w", st.line, err)
				}
				sub[i] = v
			}
			subQs := make([]int, len(st.args))
			for i, ai := range st.args {
				subQs[i] = qs[ai]
			}
			if err := p.apply(st.name, st.line, sub, subQs, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := p.applyBuiltin(name, line, params, qs); err != nil {
		return err
	}
	return p.checkGates(line)
}

func (p *parser) applyBuiltin(name string, line int, params []float64, qs []int) error {
	need := func(nq, np int) error {
		if len(qs) != nq {
			return fmt.Errorf("line %d: gate %q wants %d qubits, got %d", line, name, nq, len(qs))
		}
		if len(params) != np {
			return fmt.Errorf("line %d: gate %q wants %d params, got %d", line, name, np, len(params))
		}
		return nil
	}
	add1 := func(k circuit.Kind) error {
		if err := need(1, 0); err != nil {
			return err
		}
		p.circ.Add1(k, qs[0])
		return nil
	}
	rot := func(k circuit.Kind) error {
		if err := need(1, 1); err != nil {
			return err
		}
		p.circ.AddRot(k, qs[0], params[0])
		return nil
	}
	add2 := func(k circuit.Kind) error {
		if err := need(2, len(params)); err != nil {
			return err
		}
		g := circuit.NewGate2(k, qs[0], qs[1])
		copy(g.Params[:], params)
		p.circ.Append(g)
		return nil
	}
	switch name {
	case "id":
		return add1(circuit.I)
	case "h":
		return add1(circuit.H)
	case "x":
		return add1(circuit.X)
	case "y":
		return add1(circuit.Y)
	case "z":
		return add1(circuit.Z)
	case "s":
		return add1(circuit.S)
	case "sdg":
		return add1(circuit.Sdg)
	case "t":
		return add1(circuit.T)
	case "tdg":
		return add1(circuit.Tdg)
	case "rx":
		return rot(circuit.RX)
	case "ry":
		return rot(circuit.RY)
	case "rz":
		return rot(circuit.RZ)
	case "u1":
		return rot(circuit.U1)
	case "u2":
		if err := need(1, 2); err != nil {
			return err
		}
		g := circuit.NewGate1(circuit.U2, qs[0])
		copy(g.Params[:], params)
		p.circ.Append(g)
		return nil
	case "u3", "u", "U":
		if err := need(1, 3); err != nil {
			return err
		}
		g := circuit.NewGate1(circuit.U3, qs[0])
		copy(g.Params[:], params)
		p.circ.Append(g)
		return nil
	case "cx", "CX", "cnot":
		return add2(circuit.CX)
	case "cz":
		return add2(circuit.CZ)
	case "swap":
		return add2(circuit.SWAP)
	case "cy", "ch", "crz", "cu1", "cp", "crx", "cry":
		// Two-qubit library gates without a dedicated IR kind: braiding
		// treats every 2Q gate identically, so map to CX.
		if err := need(2, len(params)); err != nil {
			return err
		}
		p.circ.Add2(circuit.CX, qs[0], qs[1])
		return nil
	case "cu3":
		if err := need(2, 3); err != nil {
			return err
		}
		p.circ.Add2(circuit.CX, qs[0], qs[1])
		return nil
	case "ccx", "toffoli":
		if err := need(3, 0); err != nil {
			return err
		}
		p.circ.AddCCX(qs[0], qs[1], qs[2])
		return nil
	}
	return fmt.Errorf("line %d: unknown gate %q", line, name)
}

// --- constant expressions -------------------------------------------------

// expr is a parsed parameter expression; identifiers other than pi must be
// gate-definition formal parameters resolved at expansion time.
type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numExpr float64

func (n numExpr) eval(map[string]float64) (float64, error) { return float64(n), nil }

type varExpr string

func (v varExpr) eval(env map[string]float64) (float64, error) {
	if val, ok := env[string(v)]; ok {
		return val, nil
	}
	return 0, fmt.Errorf("unknown parameter %q", string(v))
}

type unaryExpr struct {
	op rune
	x  expr
}

func (u unaryExpr) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	if err != nil {
		return 0, err
	}
	if u.op == '-' {
		return -v, nil
	}
	return v, nil
}

type binExpr struct {
	op   rune
	l, r expr
}

func (b binExpr) eval(env map[string]float64) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("division by zero in parameter expression")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("bad operator %q", b.op)
}

type callExpr struct {
	fn string
	x  expr
}

func (c callExpr) eval(env map[string]float64) (float64, error) {
	v, err := c.x.eval(env)
	if err != nil {
		return 0, err
	}
	switch c.fn {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		if v <= 0 {
			return 0, fmt.Errorf("ln of non-positive value")
		}
		return math.Log(v), nil
	case "sqrt":
		if v < 0 {
			return 0, fmt.Errorf("sqrt of negative value")
		}
		return math.Sqrt(v), nil
	}
	return 0, fmt.Errorf("unknown function %q", c.fn)
}

// parseExpr parses an additive expression. params, when non-nil, names the
// identifiers legal as variables (gate formal parameters).
func (p *parser) parseExpr(params map[string]bool) (expr, error) {
	return p.parseAdd(params)
}

func (p *parser) parseAdd(params map[string]bool) (expr, error) {
	l, err := p.parseMul(params)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokPlus:
			p.advance()
			r, err := p.parseMul(params)
			if err != nil {
				return nil, err
			}
			l = binExpr{'+', l, r}
		case tokMinus:
			p.advance()
			r, err := p.parseMul(params)
			if err != nil {
				return nil, err
			}
			l = binExpr{'-', l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul(params map[string]bool) (expr, error) {
	l, err := p.parseUnary(params)
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokStar:
			p.advance()
			r, err := p.parseUnary(params)
			if err != nil {
				return nil, err
			}
			l = binExpr{'*', l, r}
		case tokSlash:
			p.advance()
			r, err := p.parseUnary(params)
			if err != nil {
				return nil, err
			}
			l = binExpr{'/', l, r}
		case tokCaret:
			p.advance()
			r, err := p.parseUnary(params)
			if err != nil {
				return nil, err
			}
			l = binExpr{'^', l, r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary(params map[string]bool) (expr, error) {
	switch tk := p.peek(); tk.kind {
	case tokMinus:
		p.advance()
		x, err := p.parseUnary(params)
		if err != nil {
			return nil, err
		}
		return unaryExpr{'-', x}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary(params)
	case tokNumber:
		p.advance()
		v, err := strconv.ParseFloat(tk.text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad number %q", tk.line, tk.text)
		}
		return numExpr(v), nil
	case tokIdent:
		p.advance()
		if tk.text == "pi" {
			return numExpr(math.Pi), nil
		}
		if p.peek().kind == tokLParen {
			p.advance()
			x, err := p.parseAdd(params)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return callExpr{tk.text, x}, nil
		}
		if params != nil && params[tk.text] {
			return varExpr(tk.text), nil
		}
		return nil, fmt.Errorf("line %d: unknown identifier %q in expression", tk.line, tk.text)
	case tokLParen:
		p.advance()
		x, err := p.parseAdd(params)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	tk := p.peek()
	return nil, fmt.Errorf("line %d: unexpected %v %q in expression", tk.line, tk.kind, tk.text)
}
