package qasm

import (
	"strings"
	"testing"

	"hilight/internal/bench"
)

// cxSource is an OpenQASM source of at most size bytes: a two-qubit
// register and as many `cx q[0],q[1];` lines as fit, inside every parse
// bound. At 8 MiB, the request body limit, it holds ~599k gates.
func cxSource(size int) string {
	const head, line = "OPENQASM 2.0;\nqreg q[2];\n", "cx q[0],q[1];\n"
	return head + strings.Repeat(line, (size-len(head))/len(line))
}

// BenchmarkParse times the request edge's first pass over a qasm body:
// Table 1 circuits as the writer renders them, and an 8 MiB body of CX
// lines. Run it with `make bench-route`.
func BenchmarkParse(b *testing.B) {
	for _, name := range []string{"QFT-16", "QFT-100", "urf5_158"} {
		e, _ := bench.ByName(name)
		src := Format(e.Build())
		b.Run(name, func(b *testing.B) { benchParse(b, src) })
	}
	src := cxSource(8 << 20)
	b.Run("8MiB-cx", func(b *testing.B) { benchParse(b, src) })
}

func benchParse(b *testing.B, src string) {
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}
