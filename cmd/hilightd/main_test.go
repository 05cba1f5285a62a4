package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hilight"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// syncBuffer is a goroutine-safe buffer for the daemon's stdout/stderr.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`hilightd listening on (http://\S+)`)

// bootDaemon runs the daemon in-process on an ephemeral port and returns
// its base URL plus a channel carrying run's exit code.
func bootDaemon(t *testing.T, args ...string) (string, *syncBuffer, chan int) {
	t.Helper()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &stdout, &stderr)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], &stderr, exit
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d\nstderr: %s", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address\nstdout: %s", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postCompile(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("non-JSON response (%d): %s", resp.StatusCode, data)
	}
	return resp.StatusCode, out
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestE2ESmoke is the end-to-end acceptance path: boot hilightd on an
// ephemeral port, compile a built-in benchmark twice over HTTP, assert
// the second response came from the schedule cache (via /metrics), force
// a 429 off a full queue, then SIGTERM the daemon mid-compile and check
// the in-flight request drains before exit.
func TestE2ESmoke(t *testing.T) {
	base, stderr, exit := bootDaemon(t, "-workers", "2", "-queue", "-1", "-drain-timeout", "2m")
	waitReady(t, base)

	// First compile: a miss that fills the cache.
	status, first := postCompile(t, base, `{"benchmark":"QFT-16"}`)
	if status != 200 {
		t.Fatalf("first compile status %d: %v", status, first)
	}
	if first["cached"] != false || first["schedule"] == nil {
		t.Fatalf("malformed first response: cached=%v", first["cached"])
	}

	// Second identical compile: answered from cache.
	status, second := postCompile(t, base, `{"benchmark":"QFT-16"}`)
	if status != 200 || second["cached"] != true {
		t.Fatalf("second compile not a cache hit (status %d, cached=%v)", status, second["cached"])
	}
	if second["fingerprint"] != first["fingerprint"] {
		t.Error("fingerprint changed between identical requests")
	}
	metrics := scrapeMetrics(t, base)
	if !strings.Contains(metrics, "cache_hits_total 1") {
		t.Errorf("metrics missing cache_hits_total 1:\n%s", metrics)
	}

	// Saturate the two workers (queue depth 0) with compiles the chaos
	// hook holds at their first routing cycle until the daemon is
	// draining; an extra request must bounce with 429 + Retry-After.
	hold := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	service.SetChaosHooks(&service.ChaosHooks{OnRouteCycle: func(hilight.CycleStats) { <-hold }})
	t.Cleanup(func() {
		release()
		service.SetChaosHooks(nil)
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The hook holds these until after the SIGTERM below, so they
			// finish only if the daemon drains; errors are checked through
			// the status codes.
			resp, err := http.Post(base+"/v1/compile", "application/json",
				strings.NewReader(`{"benchmark":"QFT-150","no_cache":true}`))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("in-flight compile finished with %d, want 200", resp.StatusCode)
				}
			} else {
				t.Errorf("in-flight compile failed: %v", err)
			}
		}()
	}
	// Wait until both held compiles are admitted.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrapeMetrics(t, base), "service_inflight 2") {
		if time.Now().After(deadline) {
			t.Fatal("slow compiles never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"benchmark":"QFT-100","no_cache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// SIGTERM with both compiles still held: the daemon must flip
	// readiness (or close its listener) and keep running until they are
	// released, let both finish (asserted in the goroutines above), and
	// exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readiness never flipped after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case code := <-exit:
		t.Fatalf("daemon exited with %d while two compiles were in flight\nstderr: %s", code, stderr.String())
	default:
	}
	release()
	wg.Wait()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(2 * time.Minute): // generous: -race slows compiles ~15x
		t.Fatalf("daemon never exited after SIGTERM\nstderr: %s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutdown complete") {
		t.Errorf("missing shutdown log:\nstderr: %s", stderr.String())
	}
	// The listener is gone: further requests fail to connect.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after shutdown")
	}
}

// TestE2EAsyncJobs drives the async path end to end: submit a batch,
// poll to completion, fetch the schedules, then shut down cleanly.
func TestE2EAsyncJobs(t *testing.T) {
	base, stderr, exit := bootDaemon(t)
	waitReady(t, base)

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(
		`{"jobs":[{"benchmark":"QFT-10"},{"benchmark":"CC-11"}],"compact":true}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			Status  string
			Results []struct {
				Error  string
				Result map[string]any
			}
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad poll body: %s", data)
		}
		if st.Status == "done" {
			for i, r := range st.Results {
				if r.Error != "" || r.Result["schedule"] == nil {
					t.Fatalf("job %d: err=%q", i, r.Error)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Batch lifecycle events reached the log bridge.
	if !strings.Contains(stderr.String(), "kind=job-finish") {
		t.Errorf("stderr missing job lifecycle events:\n%s", stderr.String())
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out syncBuffer
	if code := run([]string{"-bogus"}, &out, &out); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.0.0.1:bad"}, &out, &out); code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
	// A flag the chosen mode ignores is rejected by name.
	worker := []string{"-workers=2", "-queue=8", "-cache-bytes=0", "-timeout=1s", "-max-timeout=1s",
		"-watchdog=0", "-tenant-quota=1", "-log-events=false"}
	cases := [][]string{{"-probe-interval=1s"}}
	for _, f := range worker {
		cases = append(cases, []string{"-coordinator=http://127.0.0.1:1", f})
	}
	for _, args := range cases {
		var stderr syncBuffer
		name, _, _ := strings.Cut(args[len(args)-1], "=")
		if code := run(args, &stderr, &stderr); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("%v: message %q does not name %s", args, stderr.String(), name)
		}
	}
}

// metricValue extracts a single metric's value from the Prometheus text
// exposition.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, metrics)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

func stopDaemon(t *testing.T, stderr *syncBuffer, exit chan int) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exit code %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never exited after SIGTERM")
	}
}

// TestE2EWireFormats drives the codec layer end to end: binary content
// negotiation on /v1/compile, the streaming mode's first-frame-before-
// compile-finishes guarantee, and the cache holding more entries under
// the binary encoding than the same schedules' JSON bytes would allow.
func TestE2EWireFormats(t *testing.T) {
	benchmarks := []string{"QFT-10", "QFT-16", "BV-10", "CC-11", "Ising-10"}

	// Phase 1: measure each benchmark's JSON schedule and binary payload
	// over the real HTTP surface.
	base, stderr, exit := bootDaemon(t)
	waitReady(t, base)
	var jsonTotal, binTotal int
	for _, b := range benchmarks {
		body := `{"benchmark":"` + b + `"}`
		resp, err := http.Post(base+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", b, resp.StatusCode, data)
		}
		var env struct {
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Schedule); err != nil {
			t.Fatal(err)
		}
		jsonTotal += compact.Len()

		req, err := http.NewRequest("POST", base+"/v1/compile", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-hilight-sched")
		bresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		bin, _ := io.ReadAll(bresp.Body)
		bresp.Body.Close()
		if bresp.StatusCode != 200 {
			t.Fatalf("%s: binary status %d", b, bresp.StatusCode)
		}
		if ct := bresp.Header.Get("Content-Type"); ct != "application/x-hilight-sched" {
			t.Fatalf("%s: binary Content-Type %q", b, ct)
		}
		if bresp.Header.Get("X-Hilight-Cached") != "true" {
			t.Errorf("%s: binary follow-up missed the cache the JSON compile filled", b)
		}
		if _, err := wire.Binary.Decode(bin); err != nil {
			t.Fatalf("%s: binary payload undecodable: %v", b, err)
		}
		binTotal += len(bin)
	}
	if binTotal*100 >= jsonTotal*40 {
		t.Errorf("binary payloads %d B not ≤40%% of JSON %d B over Table 1 subset", binTotal, jsonTotal)
	}

	// Streaming: the first layer frame must arrive before the compile
	// finishes. The end-frame trailer carries the compile's runtime on the
	// same process clock, so the comparison is sound: if the first frame
	// beat t0+runtime, it was delivered while the router was still working.
	t0 := time.Now()
	sresp, err := http.Post(base+"/v1/compile?stream=1", "application/json",
		strings.NewReader(`{"benchmark":"QFT-100","no_cache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	dec := wire.NewStreamDecoder(sresp.Body)
	var firstLayer time.Time
	var layers int
	var trailer struct {
		RuntimeNS int64 `json:"runtime_ns"`
		Cached    bool  `json:"cached"`
	}
	for {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream frame: %v", err)
		}
		switch f.Kind {
		case wire.FrameLayer:
			if layers == 0 {
				firstLayer = time.Now()
			}
			layers++
		case wire.FrameEnd:
			if err := json.Unmarshal(f.Payload, &trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
		case wire.FrameError:
			t.Fatalf("stream aborted: %s", f.Payload)
		}
	}
	sresp.Body.Close()
	if layers == 0 || trailer.RuntimeNS == 0 {
		t.Fatalf("stream carried %d layers, runtime %d", layers, trailer.RuntimeNS)
	}
	compileEnd := t0.Add(time.Duration(trailer.RuntimeNS))
	if !firstLayer.Before(compileEnd) {
		t.Errorf("first layer frame at +%v, after the %v compile finished",
			firstLayer.Sub(t0), time.Duration(trailer.RuntimeNS))
	}
	stopDaemon(t, stderr, exit)

	// Phase 2: a cache cap far below the schedules' JSON footprint holds
	// every entry under the binary encoding — the cache-entries win the
	// codec refactor was for, observed through /metrics.
	budget := jsonTotal / 2
	base2, stderr2, exit2 := bootDaemon(t, "-cache-bytes", strconv.Itoa(budget))
	waitReady(t, base2)
	for _, b := range benchmarks {
		status, _ := postCompile(t, base2, `{"benchmark":"`+b+`"}`)
		if status != 200 {
			t.Fatalf("%s: status %d", b, status)
		}
	}
	metrics := scrapeMetrics(t, base2)
	if got := metricValue(t, metrics, "cache_entries"); got != float64(len(benchmarks)) {
		t.Errorf("cache_entries = %v with a %d B cap, want %d (JSON bytes would need %d)",
			got, budget, len(benchmarks), jsonTotal)
	}
	if got := metricValue(t, metrics, "cache_evictions_total"); got != 0 {
		t.Errorf("cache_evictions_total = %v, want 0", got)
	}
	encoded := metricValue(t, metrics, "cache_encoded_bytes")
	if encoded != float64(binTotal) {
		t.Errorf("cache_encoded_bytes = %v, want %d (the binary payload bytes)", encoded, binTotal)
	}
	stopDaemon(t, stderr2, exit2)
}

var coordRe = regexp.MustCompile(`hilightd coordinating \d+ workers on (http://\S+)`)

// TestE2ECoordinator boots two worker daemons and a coordinator over
// them, all in-process: compiles route deterministically on the
// fingerprint (the repeat lands on the same worker and hits its cache),
// the coordinator's JSON matches the single-node shape, and one SIGTERM
// drains the whole trio cleanly.
func TestE2ECoordinator(t *testing.T) {
	w1, _, exit1 := bootDaemon(t, "-node-id", "w1", "-watchdog", "0")
	w2, _, exit2 := bootDaemon(t, "-node-id", "w2", "-watchdog", "0")
	waitReady(t, w1)
	waitReady(t, w2)

	var stdout, stderr syncBuffer
	coExit := make(chan int, 1)
	go func() {
		coExit <- run([]string{
			"-addr", "127.0.0.1:0",
			"-coordinator", w1 + "," + w2,
			"-node-id", "co",
			"-probe-interval", "50ms",
		}, &stdout, &stderr)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := coordRe.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced itself\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitReady(t, base)

	req, err := http.NewRequest("POST", base+"/v1/compile", strings.NewReader(`{"benchmark": "QFT-10"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	first, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	if first.StatusCode != 200 {
		t.Fatalf("compile via coordinator: %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Hilight-Node"); got != "co" {
		t.Errorf("X-Hilight-Node = %q, want coordinator id", got)
	}
	servedBy := first.Header.Get("X-Hilight-Worker")
	if servedBy == "" {
		t.Fatal("coordinator response lacks X-Hilight-Worker")
	}

	status, env := postCompile(t, base, `{"benchmark": "QFT-10"}`)
	if status != 200 {
		t.Fatalf("repeat compile: %d", status)
	}
	if cached, _ := env["cached"].(bool); !cached {
		t.Error("repeat fingerprint missed the sharded worker cache")
	}

	metrics := scrapeMetrics(t, base)
	for _, want := range []string{"cluster_forwards_total 2", "cluster_worker_up 2"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("coordinator metrics lack %q:\n%s", want, metrics)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]chan int{"coordinator": coExit, "worker1": exit1, "worker2": exit2} {
		select {
		case code := <-ch:
			if code != 0 {
				t.Errorf("%s exited %d", name, code)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s never exited after SIGTERM", name)
		}
	}
}

// TestCoordinatorJournal checks that -journal reaches a coordinator: it
// opens its journal in the directory before it announces itself.
func TestCoordinatorJournal(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-coordinator", "http://127.0.0.1:1", "-journal", dir}, &stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !coordRe.MatchString(stdout.String()) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced itself\nstderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Errorf("coordinator started with -journal has no journal: %v", err)
	}
	stopDaemon(t, &stderr, exit)
}
