package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hilight"
	"hilight/internal/wire"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out, runErr
}

func TestRunList(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", "", true, "hilight", "rect", "", 1, "metrics", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hilight-map") || !strings.Contains(out, "QFT-100") {
		t.Errorf("list output incomplete:\n%s", out)
	}
}

func TestRunBenchMetrics(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", "BV-10", false, "hilight-map", "rect", "", 1, "metrics", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "latency   9 cycles") {
		t.Errorf("BV-10 metrics wrong:\n%s", out)
	}
}

func TestRunQASMFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ghz.qasm")
	src := "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run(path, "", false, "hilight-map", "square", "", 1, "metrics", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "latency   3 cycles") {
		t.Errorf("ghz metrics wrong:\n%s", out)
	}
}

func TestRunRealFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.real")
	src := ".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run(path, "", false, "hilight-map", "rect", "", 1, "metrics", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "latency   1 cycles") {
		t.Errorf("real-file metrics wrong:\n%s", out)
	}
}

func TestRunShowVariants(t *testing.T) {
	for _, show := range []string{"layers", "viz", "heat", "svg", "qasm"} {
		out, err := capture(t, func() error {
			return run("", "CC-11", false, "hilight-map", "rect", "", 1, show, "", false, false)
		})
		if err != nil {
			t.Fatalf("%s: %v", show, err)
		}
		if len(out) == 0 {
			t.Errorf("%s produced no output", show)
		}
	}
}

// -factory reserves the corner the grid line reports: sqrt8_260's 12
// qubits and one factory tile need the 4×4 square, not the 4×3 rectangle.
func TestRunWithFactory(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", "sqrt8_260", false, "hilight-map", "rect", "1x1", 1, "metrics", "", false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "grid      grid 4x4 (16 tiles, 1 reserved)") {
		t.Errorf("grid line does not report the reserved tile:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []func() error{
		func() error {
			return run("", "", false, "hilight", "rect", "", 1, "metrics", "", false, false)
		}, // no input
		func() error {
			return run("", "nope", false, "hilight", "rect", "", 1, "metrics", "", false, false)
		}, // bad bench
		func() error {
			return run("", "BV-10", false, "nope", "rect", "", 1, "metrics", "", false, false)
		}, // bad method
		func() error {
			return run("", "BV-10", false, "hilight", "hex", "", 1, "metrics", "", false, false)
		}, // bad grid
		func() error {
			return run("", "BV-10", false, "hilight", "rect", "x", 1, "metrics", "", false, false)
		}, // bad factory
		func() error {
			return run("", "BV-10", false, "hilight", "rect", "", 1, "nope", "", false, false)
		}, // bad show
		func() error {
			return run("", "BV-10", false, "hilight", "rect", "", 1, "json", "", false, false)
		}, // -show json: the JSON schedule is -format json
		func() error {
			return run("/no/such/file.qasm", "", false, "hilight", "rect", "", 1, "metrics", "", false, false)
		},
	}
	for i, f := range cases {
		if _, err := capture(t, f); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunTraceTable(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", "QFT-10", false, "hilight", "rect", "", 1, "metrics", "", true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"validate", "decompose-swaps", "qco", "place", "route", "finalize-metrics", "total"} {
		if !strings.Contains(out, stage) {
			t.Errorf("trace table missing stage %q:\n%s", stage, out)
		}
	}
}

// -metrics appends the Prometheus text exposition to the output, and its
// pipeline counters reconcile with the human-readable metrics above it:
// one run per executed pass, and the route pass's cycle total equals the
// reported latency.
func TestRunMetricsFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", "BV-10", false, "hilight-map", "rect", "", 1, "metrics", "", false, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "latency   9 cycles") {
		t.Fatalf("human metrics missing:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE pipeline_route_runs_total counter",
		"pipeline_route_runs_total 1",
		"pipeline_route_cycles_total 9", // reconciles with the latency line
		"pipeline_place_runs_total 1",
		"route_braids_routed_total",
		"pipeline_route_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRunFormatVariants pins the -format flag: json prints the canonical
// schedule JSON, bin writes the binary wire payload, stream writes a
// frame stream — and all three carry the same schedule.
func TestRunFormatVariants(t *testing.T) {
	outputs := map[string]string{}
	for _, format := range []string{"json", "bin", "stream"} {
		out, err := capture(t, func() error {
			return run("", "BV-10", false, "hilight-map", "rect", "", 1, "metrics", format, false, false)
		})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s produced no output", format)
		}
		outputs[format] = out
	}

	jsonSched, err := hilight.DecodeScheduleJSON([]byte(outputs["json"]))
	if err != nil {
		t.Fatalf("-format json output undecodable: %v", err)
	}
	binSched, err := hilight.DecodeScheduleBinary([]byte(outputs["bin"]))
	if err != nil {
		t.Fatalf("-format bin output undecodable: %v", err)
	}
	streamSched, meta, err := wire.ReadStream(strings.NewReader(outputs["stream"]))
	if err != nil {
		t.Fatalf("-format stream output undecodable: %v", err)
	}
	var trailer struct {
		LatencyCycles int `json:"latency_cycles"`
	}
	if err := json.Unmarshal(meta, &trailer); err != nil || trailer.LatencyCycles <= 0 {
		t.Errorf("stream trailer metadata malformed: %s (%v)", meta, err)
	}
	want, _ := hilight.EncodeScheduleJSON(jsonSched)
	for name, s := range map[string]*hilight.Schedule{"bin": binSched, "stream": streamSched} {
		got, _ := hilight.EncodeScheduleJSON(s)
		if !bytes.Equal(got, want) {
			t.Errorf("-format %s schedule differs from -format json", name)
		}
	}
	if len(outputs["bin"]) >= len(outputs["json"]) {
		t.Errorf("binary output (%d B) not smaller than JSON (%d B)", len(outputs["bin"]), len(outputs["json"]))
	}

	if _, err := capture(t, func() error {
		return run("", "BV-10", false, "hilight-map", "rect", "", 1, "metrics", "nope", false, false)
	}); err == nil {
		t.Error("unknown -format accepted")
	}
}
