package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hilight"
	"hilight/internal/wire"
)

// TestStreamAbortOnPassPanic pins the in-band abort contract: a pass
// panic after ?stream=1 has sent its 200 must terminate the stream with
// a well-formed 'X' frame — not a mid-frame truncation — and still flow
// to the recovery middleware for panic accounting.
func TestStreamAbortOnPassPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var cycles atomic.Int64
	SetChaosHooks(&ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		if cycles.Add(1) == 3 {
			panic("edge test: injected pass panic")
		}
	}})
	t.Cleanup(func() { SetChaosHooks(nil) })

	resp, raw := doCompile(t, ts.URL+"/v1/compile?stream=1", "", map[string]any{"benchmark": "QFT-10"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.StreamContentType {
		t.Fatalf("Content-Type %q, want %q", ct, wire.StreamContentType)
	}

	// The raw body must decode as a complete frame sequence whose
	// terminal frame is the abort — every byte accounted for, no torn
	// frame at the tail.
	dec := wire.NewStreamDecoder(bytes.NewReader(raw))
	var last wire.Frame
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream not well-formed after pass panic: %v", err)
		}
		last = f
	}
	if last.Kind != wire.FrameError {
		t.Fatalf("terminal frame kind %q, want %q", last.Kind, wire.FrameError)
	}
	if !strings.Contains(string(last.Payload), "injected pass panic") {
		t.Errorf("abort frame does not carry the panic: %s", last.Payload)
	}
	// ReadStream surfaces the same abort as a remote error.
	if _, _, err := wire.ReadStream(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "injected pass panic") {
		t.Errorf("ReadStream error = %v, want remote pass panic", err)
	}

	snap := s.cfg.Metrics.Snapshot()
	if v, _ := snap.Counter("service/panics"); v != 1 {
		t.Errorf("service/panics = %d, want 1 (panic must still reach the recovery middleware)", v)
	}
	if v, _ := snap.Counter("service/requests-failed"); v < 1 {
		t.Errorf("requests-failed = %d, want >= 1", v)
	}
}

// TestStreamAbortOnWatchdogStall pins the watchdog sibling: a stalled
// compile whose stream already went out aborts in-band with the stall
// cause and counts under service/watchdog/aborted.
func TestStreamAbortOnWatchdogStall(t *testing.T) {
	s, ts := newTestServer(t, Config{WatchdogWindow: 30 * time.Millisecond})
	var armed atomic.Bool
	armed.Store(true)
	SetChaosHooks(&ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		if armed.CompareAndSwap(true, false) {
			time.Sleep(500 * time.Millisecond) // >> two watchdog windows
		}
	}})
	t.Cleanup(func() { SetChaosHooks(nil) })

	resp, raw := doCompile(t, ts.URL+"/v1/compile?stream=1", "", map[string]any{"benchmark": "QFT-10"})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	dec := wire.NewStreamDecoder(bytes.NewReader(raw))
	var last wire.Frame
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream not well-formed after watchdog abort: %v", err)
		}
		last = f
	}
	if last.Kind != wire.FrameError {
		t.Fatalf("terminal frame kind %q, want %q", last.Kind, wire.FrameError)
	}
	if !strings.Contains(string(last.Payload), "no routing-cycle progress") {
		t.Errorf("abort frame does not carry the stall cause: %s", last.Payload)
	}
	snap := s.cfg.Metrics.Snapshot()
	if v, _ := snap.Counter("service/watchdog/fired"); v != 1 {
		t.Errorf("watchdog/fired = %d, want 1", v)
	}
	if v, _ := snap.Counter("service/watchdog/aborted"); v != 1 {
		t.Errorf("watchdog/aborted = %d, want 1", v)
	}
}

// TestCompileEnvelopeNegotiation pins the node-to-node form: Accept:
// application/x-hilight-sched+json answers the JSON envelope with the
// schedule as the binary payload — full metadata, compact schedule.
func TestCompileEnvelopeNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"benchmark": "QFT-10"}

	resp, body := doCompile(t, ts.URL+"/v1/compile", wire.BinaryEnvelopeContentType, req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.BinaryEnvelopeContentType {
		t.Fatalf("Content-Type %q, want %q", ct, wire.BinaryEnvelopeContentType)
	}
	var env compileResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.ScheduleBin) == 0 || len(env.Schedule) != 0 {
		t.Fatal("envelope mode must carry schedule_bin only")
	}
	binSched, err := wire.Binary.Decode(env.ScheduleBin)
	if err != nil {
		t.Fatalf("schedule_bin undecodable: %v", err)
	}

	// The default JSON negotiation of the (now cached) same compile
	// carries the same schedule and the same metadata fields.
	respJ, bodyJ := doCompile(t, ts.URL+"/v1/compile", "", req)
	if respJ.StatusCode != 200 {
		t.Fatalf("json status %d: %s", respJ.StatusCode, bodyJ)
	}
	var envJ compileResponse
	if err := json.Unmarshal(bodyJ, &envJ); err != nil {
		t.Fatal(err)
	}
	if !envJ.Cached {
		t.Error("JSON follow-up missed the cache entry the envelope compile filled")
	}
	if envJ.Fingerprint != env.Fingerprint || envJ.Method != env.Method ||
		envJ.LatencyCycles != env.LatencyCycles {
		t.Error("envelope and JSON negotiations disagree on metadata")
	}
	jsonSched, err := hilight.DecodeScheduleJSON(envJ.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hilight.EncodeScheduleJSON(binSched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hilight.EncodeScheduleJSON(jsonSched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("envelope and JSON negotiations returned different schedules")
	}
}

// TestRetryAfterDerived pins the 429 hint derivation: the Retry-After
// header tracks observed compile latency (clamped to [floor, 1m]) and
// the JSON body mirrors the exact value as retry_after_ms.
func TestRetryAfterDerived(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})

	// Saturate the single worker so the next request is rejected.
	rel, err := s.admit.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	check := func(wantSec int64) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "QFT-10"})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
		}
		header, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
		if err != nil {
			t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
		}
		var eb struct {
			Error        string `json:"error"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("429 body not JSON: %v (%s)", err, body)
		}
		if eb.Error == "" {
			t.Error("429 body missing error message")
		}
		if eb.RetryAfterMS <= 0 {
			t.Fatalf("retry_after_ms = %d, want > 0", eb.RetryAfterMS)
		}
		// The header is the body value rounded up to whole seconds.
		if want := int64(math.Ceil(float64(eb.RetryAfterMS) / 1000)); header != want {
			t.Errorf("Retry-After header %ds does not mirror retry_after_ms %dms", header, eb.RetryAfterMS)
		}
		if header != wantSec {
			t.Errorf("Retry-After = %ds, want %ds", header, wantSec)
		}
	}

	// No compile observed yet: the configured floor (1s) answers.
	check(1)

	// With an observed average of ~4s per compile and one request in
	// flight on one worker, a new arrival waits two waves ≈ 8s.
	s.compileSeconds.Observe(4.0)
	check(8)

	// A pathological average clamps at the one-minute ceiling.
	s.compileSeconds.Observe(1000.0)
	check(60)
}

// TestTenantQuotaOverHTTP pins the quota edge: with TenantQuota 1, a
// tenant's second concurrent compile answers 429 (with the derived
// Retry-After mirror) while another tenant proceeds.
func TestTenantQuotaOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, TenantQuota: 1})
	gate := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	SetChaosHooks(&ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		if armed.CompareAndSwap(true, false) {
			<-gate // hold the first compile mid-flight
		}
	}})
	t.Cleanup(func() { SetChaosHooks(nil) })

	compile := func(tenant string) (*http.Response, []byte) {
		data, _ := json.Marshal(map[string]any{"benchmark": "QFT-10"})
		req, err := http.NewRequest("POST", ts.URL+"/v1/compile", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Hilight-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	first := make(chan int, 1)
	go func() {
		resp, _ := compile("acme")
		first <- resp.StatusCode
	}()
	// Wait until the first compile is admitted and parked on the gate.
	deadline := time.Now().Add(5 * time.Second)
	for armed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("first compile never reached the routing hook")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := compile("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("same-tenant status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "tenant") || !strings.Contains(string(body), "retry_after_ms") {
		t.Errorf("quota 429 body missing context: %s", body)
	}
	if respB, bodyB := compile("globex"); respB.StatusCode != 200 {
		t.Errorf("other tenant status %d, want 200: %s", respB.StatusCode, bodyB)
	}

	close(gate)
	if code := <-first; code != 200 {
		t.Errorf("gated compile finished with %d, want 200", code)
	}
}

// TestPriorityHeaderValidation pins the 400 on an unknown priority
// class and the acceptance of the two defined ones.
func TestPriorityHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		pri  string
		want int
	}{
		{"", 200}, {"interactive", 200}, {"batch", 200}, {"urgent", 400},
	} {
		data, _ := json.Marshal(map[string]any{"benchmark": "QFT-10"})
		req, err := http.NewRequest("POST", ts.URL+"/v1/compile", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tc.pri != "" {
			req.Header.Set("X-Hilight-Priority", tc.pri)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("priority %q: status %d, want %d (%s)", tc.pri, resp.StatusCode, tc.want, body)
		}
	}
}

// TestNodeIDHeader pins the cluster observability hook: a NodeID-named
// server stamps every response with X-Hilight-Node.
func TestNodeIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeID: "worker-1"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Hilight-Node"); got != "worker-1" {
		t.Errorf("X-Hilight-Node = %q, want worker-1", got)
	}
}
