package qasm

import (
	"context"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// hostileBodyBytes is the largest body a compile request carries
// (service.MaxBodyBytes); each hostile shape below fills it.
const hostileBodyBytes = 8 << 20

// hostileShapes are sources whose parameter expressions once cost the
// parser a stack overflow, which kills the process where no recover
// reaches, or minutes of evaluation. Each builds its source at the body
// cap and names the error it must end in.
var hostileShapes = []struct {
	name  string
	build func() string
	want  string
}{
	{"signs", func() string {
		return fill("qreg q[1];\nrz(", "-", "1) q[0];\n")
	}, "qasm: line 2: parameter expression has more than 64 terms"},
	{"parentheses", func() string {
		n := (hostileBodyBytes - 64) / 2
		return "qreg q[1];\nrz(" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ") q[0];\n"
	}, "qasm: line 2: parameter expression has more than 64 terms"},
	{"sum", func() string {
		return fill("qreg q[1];\nrz(1", "+1", ") q[0];\n")
	}, "qasm: line 2: parameter expression has more than 64 terms"},
	{"calls", func() string {
		n := (hostileBodyBytes - 64) / 5
		return "qreg q[1];\nrz(" + strings.Repeat("sin(", n) + "1" + strings.Repeat(")", n) + ") q[0];\n"
	}, "qasm: line 2: parameter expression has more than 64 terms"},
	// A macro whose parameter is 100,000 signs deep, applied until the
	// body is full: the term bound stops it at its definition.
	{"deep macro", func() string {
		return fill("qreg q[1];\ngate g(a) x { rz("+strings.Repeat("-", 100_000)+"a) x; }\n", "g(1) q[0];\n", "")
	}, "qasm: line 2: parameter expression has more than 64 terms"},
	// A gate of 20,000 parameters applied through a one-statement macro
	// until the body is full: each application evaluates all 20,000.
	{"wide macro", func() string {
		return fill("qreg q[1];\ngate big("+uniqueFormals(20_000)+") x { }\ngate m x { big("+
			strings.Repeat("1,", 19_999)+"1) x; }\n", "m q[0];\n", "")
	}, "qasm: line 3: source evaluates more than 16777216 parameter terms"},
}

// fill repeats unit between head and tail until the source is as long
// as the body cap allows.
func fill(head, unit, tail string) string {
	n := (hostileBodyBytes - len(head) - len(tail)) / len(unit)
	return head + strings.Repeat(unit, n) + tail
}

// uniqueFormals returns n distinct formal parameter names, joined by
// commas.
func uniqueFormals(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("p")
		for j := i; ; j /= 26 {
			b.WriteByte(byte('a' + j%26))
			if j < 26 {
				break
			}
		}
	}
	return b.String()
}

// TestParseHostileBodiesSubprocess parses each hostile shape in a child
// process, the test binary run again with a 16 MiB stack limit, so that
// a regression to unbounded recursion fails this one test instead of
// killing go test. Each shape must end in its error within
// hostileTimeBound: 3 s, where each takes under half a second.
func TestParseHostileBodiesSubprocess(t *testing.T) {
	if name := os.Getenv("QASM_HOSTILE_SHAPE"); name != "" {
		debug.SetMaxStack(16 << 20)
		for _, sh := range hostileShapes {
			if sh.name != name {
				continue
			}
			src := sh.build()
			if len(src) > hostileBodyBytes {
				t.Fatalf("%s: source of %d bytes is past the body cap", name, len(src))
			}
			if _, err := Parse("hostile", src); err == nil || err.Error() != sh.want {
				t.Fatalf("%s: Parse = %v, want %q", name, err, sh.want)
			}
			return
		}
		t.Fatalf("unknown shape %q", name)
	}
	if testing.Short() {
		t.Skip("parses six 8 MiB sources in child processes")
	}
	for _, sh := range hostileShapes {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestParseHostileBodiesSubprocess$")
		cmd.Env = append(os.Environ(), "QASM_HOSTILE_SHAPE="+sh.name)
		start := time.Now()
		out, err := cmd.CombinedOutput()
		took := time.Since(start)
		cancel()
		if err != nil {
			t.Errorf("%s: child failed after %v: %v\n%s", sh.name, took.Round(time.Millisecond), err, tail(out))
			continue
		}
		t.Logf("%s: %v", sh.name, took.Round(time.Millisecond))
		if took > hostileTimeBound {
			t.Errorf("%s: took %v to end in its error, want under %v", sh.name, took.Round(time.Millisecond), hostileTimeBound)
		}
	}
}

// tail returns the last lines of a child's output.
func tail(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return strings.Join(lines[max(0, len(lines)-12):], "\n")
}
