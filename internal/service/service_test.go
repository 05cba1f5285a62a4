package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hilight"
)

// newTestServer boots a Server on an httptest listener and tears it
// down (with a leak check) when the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		waitNoCompileGoroutines(t)
	})
	return s, ts
}

// waitNoCompileGoroutines is the leak-check helper: it polls the process
// stack dump until no goroutine is inside the compiler or the service's
// compile/admission paths, failing the test if any survives the grace
// period.
func waitNoCompileGoroutines(t *testing.T) {
	t.Helper()
	patterns := []string{
		"hilight.Compile(",
		"hilight.CompileAll(",
		"hilight/internal/core.Run(",
		"service.(*Server).handleCompile(",
		"service.(*admission).acquire(",
		"service.(*JobStore).run(",
		"service.(*watchdog).guard.",
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		dump := string(buf[:n])
		leaked := ""
		for _, g := range strings.Split(dump, "\n\n") {
			for _, p := range patterns {
				if strings.Contains(g, p) {
					leaked = g
				}
			}
		}
		if leaked == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leaked past shutdown:\n%s", leaked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestCompileAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := map[string]any{"benchmark": "QFT-16", "compact": true}
	resp, body := postJSON(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first compileResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if first.Fingerprint == "" || first.LatencyCycles <= 0 || first.Method != "hilight" {
		t.Errorf("malformed response: %+v", first)
	}
	if len(first.Trace) == 0 {
		t.Error("response missing pipeline trace")
	}
	// The schedule payload round-trips through the public decoder and
	// validates against the benchmark circuit.
	sched, err := hilight.DecodeScheduleJSON(first.Schedule)
	if err != nil {
		t.Fatalf("returned schedule undecodable: %v", err)
	}
	if sched == nil || len(sched.Layers) != first.LatencyCycles {
		t.Errorf("schedule layers %d != latency %d", len(sched.Layers), first.LatencyCycles)
	}

	// An identical second request is served from the cache.
	resp2, body2 := postJSON(t, ts.URL+"/v1/compile", req)
	if resp2.StatusCode != 200 {
		t.Fatalf("second status %d", resp2.StatusCode)
	}
	var second compileResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not a cache hit")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Error("fingerprint changed between identical requests")
	}
	if !bytes.Equal(second.Schedule, first.Schedule) {
		t.Error("cached schedule differs from compiled schedule")
	}

	// A different seed misses the cache.
	resp3, body3 := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "QFT-16", "compact": true, "seed": 2})
	if resp3.StatusCode != 200 {
		t.Fatalf("third status %d: %s", resp3.StatusCode, body3)
	}
	var third compileResponse
	if err := json.Unmarshal(body3, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Fingerprint == first.Fingerprint {
		t.Error("different seed produced a cache hit")
	}

	// The cache counters are visible on /metrics in Prometheus form.
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "cache_hits_total 1") {
		t.Errorf("metrics missing cache_hits_total 1:\n%s", metrics)
	}
}

func TestCompileQASMAndDefects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	qasm := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
	req := map[string]any{
		"qasm":    qasm,
		"grid":    map[string]any{"w": 3, "h": 3},
		"defects": map[string]any{"tiles": []int{8}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr compileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	sched, err := hilight.DecodeScheduleJSON(cr.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Grid == nil || !sched.Grid.TileDefective(8) {
		t.Error("schedule lost the defect map")
	}
}

func TestCompileRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
		path string // "" is /v1/compile
	}{
		{"bad-json", "{", 400, ""},
		{"empty", "{}", 400, ""},
		{"both-sources", `{"qasm":"x","benchmark":"QFT-16"}`, 400, ""},
		{"unknown-benchmark", `{"benchmark":"nope"}`, 400, ""},
		{"unknown-method", `{"benchmark":"QFT-16","method":"nope"}`, 400, ""},
		{"unknown-fallback", `{"benchmark":"QFT-16","fallback":["nope"]}`, 400, ""},
		{"unknown-field", `{"benchmark":"QFT-16","bogus":1}`, 400, ""},
		{"half-grid", `{"benchmark":"QFT-16","grid":{"w":5}}`, 400, ""},
		{"bad-grid-kind", `{"benchmark":"QFT-16","grid":{"kind":"hex"}}`, 400, ""},
		{"huge-route-workers", `{"benchmark":"QFT-16","route_workers":100000}`, 400, ""},
		{"lookahead-field", `{"benchmark":"QFT-16","lookahead":4}`, 400, ""},
		{"route-workers-field", `{"benchmark":"QFT-16","route_workers":2}`, 400, ""},
		{"jobs-route-workers-field", `{"jobs":[{"benchmark":"QFT-16"}],"route_workers":2}`, 400, "/v1/jobs"},
		{"capacity", `{"benchmark":"QFT-16","grid":{"w":2,"h":2}}`, 422, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/compile"
			}
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.want, out)
			}
			var env map[string]string
			if err := json.Unmarshal(out, &env); err != nil || env["error"] == "" {
				t.Errorf("missing error envelope: %s", out)
			}
		})
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the worker slot and the single queue ticket directly so the
	// next request deterministically sees a full queue.
	rel1, err := s.admit.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan func(), 1)
	go func() {
		rel, err := s.admit.acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		queued <- rel
	}()
	waitGauge(t, s.Metrics(), "service/queued", 1)

	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "QFT-10"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if v, _ := s.Metrics().Snapshot().Counter("service/rejected"); v < 1 {
		t.Error("rejection not metered")
	}

	rel1()
	rel := <-queued
	rel()

	// With capacity back, the same request compiles fine.
	resp2, body2 := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "QFT-10"})
	if resp2.StatusCode != 200 {
		t.Fatalf("status after capacity freed: %d (%s)", resp2.StatusCode, body2)
	}
}

func TestDrainRejectsAndReadyzFlips(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz not ready at boot: %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz failed: %d", resp.StatusCode)
	}
	s.Drain()
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "QFT-10"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("compile during drain = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"jobs": []any{map[string]any{"benchmark": "QFT-10"}}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("jobs submit during drain = %d, want 503", resp.StatusCode)
	}
	// healthz keeps answering during drain: the process is alive.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz during drain should stay 200")
	}
}

// TestClientDisconnectMidCompile is the serving-boundary cancellation
// contract: a client that goes away mid-compile must cancel the compile
// promptly (ErrCanceled inside, the canceled metric outside) and leak no
// goroutine.
func TestClientDisconnectMidCompile(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"benchmark":"QFT-150","no_cache":true}`
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/compile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request unexpectedly succeeded with %d", resp.StatusCode)
		}
		errc <- err
	}()

	// Wait until the compile is actually in flight, then hang up.
	waitGauge(t, s.Metrics(), "service/inflight", 1)
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context cancellation", err)
	}

	// The server notices promptly: the canceled metric ticks and the
	// in-flight gauge returns to zero well before the compile could have
	// finished on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.Metrics().Snapshot()
		canceled, _ := snap.Counter("service/requests-canceled")
		inflight, _ := snap.Gauge("service/inflight")
		if canceled == 1 && inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation not observed: canceled=%d inflight=%d", canceled, inflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitNoCompileGoroutines(t)
}

func TestJobsAsyncLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"jobs": []any{
			map[string]any{"benchmark": "QFT-10"},
			map[string]any{"benchmark": "BV-10", "grid": map[string]any{"kind": "square"}},
		},
		"seed": 3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID    string `json:"id"`
		Count int    `json:"count"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Count != 2 {
		t.Fatalf("bad submit response: %s", body)
	}

	var st jobStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+sub.ID)
		if resp.StatusCode != 200 {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Finished != 2 || len(st.Results) != 2 {
		t.Fatalf("done status malformed: %+v", st)
	}
	for i, r := range st.Results {
		if r.Error != "" {
			t.Fatalf("job %d failed: %s", i, r.Error)
		}
		if r.Result == nil || len(r.Result.Schedule) == 0 {
			t.Fatalf("job %d has no schedule", i)
		}
		if _, err := hilight.DecodeScheduleJSON(r.Result.Schedule); err != nil {
			t.Fatalf("job %d schedule undecodable: %v", i, err)
		}
	}

	// Unknown id and empty batch fail cleanly.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/job-999999"); resp.StatusCode != 404 {
		t.Errorf("unknown job id status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"jobs": []any{}}); resp.StatusCode != 400 {
		t.Errorf("empty batch status %d, want 400", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"jobs": []any{map[string]any{"benchmark": "nope"}}}); resp.StatusCode != 400 {
		t.Errorf("bad entry status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v1/methods")
	if resp.StatusCode != 200 {
		t.Fatalf("methods status %d", resp.StatusCode)
	}
	var methods struct {
		Methods []string `json:"methods"`
	}
	if err := json.Unmarshal(body, &methods); err != nil {
		t.Fatal(err)
	}
	if len(methods.Methods) == 0 || !slicesContains(methods.Methods, "hilight") {
		t.Errorf("methods list missing hilight: %v", methods.Methods)
	}

	resp, body = getBody(t, ts.URL+"/v1/benchmarks")
	if resp.StatusCode != 200 {
		t.Fatalf("benchmarks status %d", resp.StatusCode)
	}
	var benches struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(body, &benches); err != nil {
		t.Fatal(err)
	}
	if !slicesContains(benches.Benchmarks, "QFT-100") {
		t.Errorf("benchmarks list missing QFT-100: %v", benches.Benchmarks)
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != 200 || !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics endpoint: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "service_requests_total") {
		t.Errorf("metrics missing service family:\n%s", body)
	}
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
