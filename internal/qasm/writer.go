package qasm

import (
	"io"
	"math"
	"slices"
	"strconv"

	"hilight/internal/circuit"
)

// bytesPerGate sizes Append's buffer: a CX line such as
// "cx q[12],q[34];\n" takes 16 bytes and a rotation with its 17
// significant digits about 32.
const bytesPerGate = 20

// Append appends the circuit's OpenQASM 2.0 source to dst and returns
// the extended buffer: a single register q of the circuit's width, and
// measure gates as `measure q[i] -> c[i];` with a creg sized to the
// qubit count. Parameters are written as %.17g writes them, so the
// output parses back via Parse into the same gates, finite rotation
// angles included. These bytes are the canonical form
// hilight.Fingerprint hashes: a change to any of them rekeys every
// cached and journaled schedule.
func Append(dst []byte, c *circuit.Circuit) []byte {
	var memo floatMemo
	dst = slices.Grow(dst, 64+bytesPerGate*len(c.Gates))
	dst = append(dst, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"...)
	if c.NumQubits > 0 {
		dst = appendRegister(dst, "qreg q[", c.NumQubits)
	}
	if slices.ContainsFunc(c.Gates, func(g circuit.Gate) bool { return g.Kind == circuit.Measure }) {
		dst = appendRegister(dst, "creg c[", c.NumQubits)
	}
	for _, g := range c.Gates {
		// Each case writes the line up to its last qubit operand.
		last := g.Q0
		switch {
		case g.Kind == circuit.Measure:
			dst = appendQubit(append(dst, "measure "...), g.Q0)
			dst = appendRegister(dst, " -> c[", g.Q0)
			continue
		case g.Kind == circuit.Reset:
			dst = append(dst, "reset "...)
		case g.TwoQubit():
			dst = append(append(dst, g.Kind.String()...), ' ')
			dst = append(appendQubit(dst, g.Q0), ',')
			last = g.Q1
		case g.Kind.Parameterized():
			dst = append(append(dst, g.Kind.String()...), '(')
			for i, v := range g.Params[:paramCount(g.Kind)] {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = memo.append(dst, v)
			}
			dst = append(dst, ") "...)
		default:
			dst = append(append(dst, g.Kind.String()...), ' ')
		}
		dst = append(appendQubit(dst, last), ";\n"...)
	}
	return dst
}

// floatMemo remembers the %.17g rendering of recent parameter values,
// direct-mapped on their bits. Circuits repeat few distinct angles
// (QFT-100's 4,950 rotations take 99 values), and strconv.AppendFloat at
// 17 digits costs more than the rest of a gate line.
type floatMemo [256]struct {
	bits uint64
	n    uint8    // length of text; 0 marks an empty slot
	text [24]byte // the longest rendering is "-d.dddddddddddddddde-308"
}

// append appends v as strconv.AppendFloat(dst, v, 'g', 17, 64) does.
func (m *floatMemo) append(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	e := &m[bits*0x9e3779b97f4a7c15>>56] // Fibonacci hashing: every bit reaches the top byte
	if e.n > 0 && e.bits == bits {
		return append(dst, e.text[:e.n]...)
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, 'g', 17, 64)
	e.bits, e.n = bits, uint8(copy(e.text[:], dst[start:]))
	return dst
}

// paramCount is the number of angles a parameterized kind carries.
func paramCount(k circuit.Kind) int {
	switch k {
	case circuit.U2:
		return 2
	case circuit.U3:
		return 3
	}
	return 1
}

// appendQubit appends the operand q[i].
func appendQubit(dst []byte, i int) []byte {
	dst = append(dst, "q["...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	return append(dst, ']')
}

// appendRegister appends open, then n and "];\n": a declaration such as
// "qreg q[5];\n" or the tail of a measure.
func appendRegister(dst []byte, open string, n int) []byte {
	dst = append(dst, open...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "];\n"...)
}

// Write writes the circuit's OpenQASM 2.0 source (see Append) to w.
func Write(w io.Writer, c *circuit.Circuit) error {
	_, err := w.Write(Append(nil, c))
	return err
}

// Format returns the circuit's OpenQASM 2.0 source (see Append) as a
// string.
func Format(c *circuit.Circuit) string { return string(Append(nil, c)) }
