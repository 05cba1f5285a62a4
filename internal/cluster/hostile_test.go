package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"hilight/internal/service"
)

// postRaw sends body verbatim and returns the status, the buffered
// response body, and the bytes the process allocated and the time that
// passed while the request was served.
func postRaw(t *testing.T, url string, body []byte) (status int, out []byte, alloc uint64, took time.Duration) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	took = time.Since(t0)
	runtime.ReadMemStats(&after)
	return resp.StatusCode, out, after.TotalAlloc - before.TotalAlloc, took
}

// qasmBody is a /v1/compile body carrying src.
func qasmBody(t *testing.T, src string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"qasm":%q}`, src))
}

// TestHostileBodiesBothTiers posts bodies that expand a few bytes into
// unbounded work to a node and to a coordinator: each must answer the
// same 400 within a fixed allocation and time budget. Without the
// request bounds, the first one kills the process with an out-of-memory
// fatal error that no recover catches.
func TestHostileBodiesBothTiers(t *testing.T) {
	node, err := StartLocalWorker("node", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Kill()
	tc := startCluster(t, 1, service.Config{}, 50*time.Millisecond)

	var macros strings.Builder
	macros.WriteString("OPENQASM 2.0;\nqreg q[1];\ngate g0 a { }\n")
	for i := 1; i <= 64; i++ {
		fmt.Fprintf(&macros, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	macros.WriteString("g64 q[0];\n")
	batch := func(entry string) []byte {
		return []byte(`{"jobs":[` + strings.Repeat(entry+",", 4095) + entry + `]}`)
	}

	const mib = 1 << 20
	cases := []struct {
		name, path string
		body       []byte
		want       string // substring of the error message
		budget     uint64 // bytes allocated per request, both sides
	}{
		{"wide-register", "/v1/compile", qasmBody(t, "OPENQASM 2.0;\nqreg q[1000000];\n"), "4096 qubits", 4 * mib},
		{"wide-broadcast", "/v1/compile", qasmBody(t, "OPENQASM 2.0;\nqreg q[1000000];\nh q;\n"), "4096 qubits", 4 * mib},
		{"ten-broadcasts", "/v1/compile", qasmBody(t, "OPENQASM 2.0;\nqreg q[1000000];\n"+strings.Repeat("h q;\n", 10)), "4096 qubits", 4 * mib},
		{"macro-nest", "/v1/compile", qasmBody(t, macros.String()), "macro applications", 64 * mib},
		{"huge-factory", "/v1/compile", []byte(`{"benchmark":"QFT-16","grid":{"factory_w":100000,"factory_h":1}}`), "factory 100000x1 too large", 4 * mib},
		{"qft500-batch", "/v1/jobs", batch(`{"benchmark":"QFT-500"}`), "more than 1048576 gates", 1024 * mib},
		{"wide-grid-batch", "/v1/jobs", batch(`{"benchmark":"QFT-16","grid":{"w":2048,"h":2048}}`), "more than 8388608 grid tiles", 256 * mib},
	}
	for _, tc2 := range cases {
		t.Run(tc2.name, func(t *testing.T) {
			var bodies [2][]byte
			for i, base := range []string{node.URL, tc.ts.URL} {
				status, out, alloc, took := postRaw(t, base+tc2.path, tc2.body)
				if status != http.StatusBadRequest || !strings.Contains(string(out), tc2.want) {
					t.Fatalf("%s: %d %s, want 400 naming %q", base, status, out, tc2.want)
				}
				if alloc > tc2.budget {
					t.Errorf("%s: allocated %d MiB, budget %d MiB", base, alloc/mib, tc2.budget/mib)
				}
				if took > 20*time.Second {
					t.Errorf("%s: took %v", base, took)
				}
				t.Logf("%s: %d KiB allocated in %v", base, alloc>>10, took)
				bodies[i] = out
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Errorf("node and coordinator answer differently:\n%s\nvs\n%s", bodies[0], bodies[1])
			}
		})
	}
}

// TestOversizeBodyBothTiers posts a body one byte over
// service.MaxBodyBytes to every body-reading endpoint of a node and of a
// coordinator: both answer the same 413.
func TestOversizeBodyBothTiers(t *testing.T) {
	node, err := StartLocalWorker("node", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Kill()
	tc := startCluster(t, 1, service.Config{}, 50*time.Millisecond)

	body := make([]byte, service.MaxBodyBytes+1)
	copy(body, `{"qasm":"`)
	for i := len(`{"qasm":"`); i < len(body); i++ {
		body[i] = ' '
	}
	for _, path := range []string{"/v1/compile", "/v1/jobs", "/v1/defects"} {
		var bodies [2][]byte
		for i, base := range []string{node.URL, tc.ts.URL} {
			status, out, _, _ := postRaw(t, base+path, body)
			if status != http.StatusRequestEntityTooLarge {
				t.Errorf("%s%s: %d %s, want 413", base, path, status, out)
			}
			bodies[i] = out
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s: node and coordinator answer differently:\n%s\nvs\n%s", path, bodies[0], bodies[1])
		}
	}
}
