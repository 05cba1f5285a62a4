package service

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"hilight"
	"hilight/internal/obs"
)

// TestWatchdogGuardFiresOnStall exercises the watchdog directly: a
// guarded context with no progress ticks must be canceled with the
// stall cause within two windows; one with steady ticks must survive.
func TestWatchdogGuardFiresOnStall(t *testing.T) {
	m := obs.NewRegistry()
	wd := newWatchdog(20*time.Millisecond, m, nil)

	ctx, _, stop := wd.guard(context.Background(), "stalling")
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a stalled guard")
	}
	if !stalled(ctx) {
		t.Fatalf("cause = %v, want errStalled", context.Cause(ctx))
	}
	if v, _ := m.Snapshot().Counter("service/watchdog/fired"); v != 1 {
		t.Errorf("service/watchdog/fired = %d, want 1", v)
	}

	live, progress, stopLive := wd.guard(context.Background(), "progressing")
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		progress()
		select {
		case <-live.Done():
			t.Fatalf("watchdog fired despite progress: %v", context.Cause(live))
		case <-time.After(2 * time.Millisecond):
		}
	}
	stopLive()
	select {
	case <-live.Done():
		if stalled(live) {
			t.Fatal("stop() reported a stall")
		}
	case <-time.After(time.Second):
		t.Fatal("stop() did not release the guard context")
	}
}

// waitNoWatchdogGoroutines polls the process stack dump until no
// watchdog ticker goroutine survives, failing after a grace period.
func waitNoWatchdogGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		dump := string(buf[:n])
		leaked := ""
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "service.(*watchdog).guard.") {
				leaked = g
			}
		}
		if leaked == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog goroutine leaked:\n%s", leaked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchdogNoLeakOnEarlyFinish pins the finish-before-first-tick
// path: a compile that returns (and calls stop) long before the window
// elapses must release the ticker goroutine promptly — not after the
// first tick — and must never be counted as fired. Repeated guards make
// a slow leak visible as an accumulating goroutine count.
func TestWatchdogNoLeakOnEarlyFinish(t *testing.T) {
	m := obs.NewRegistry()
	wd := newWatchdog(time.Hour, m, nil) // first tick is an hour away
	for i := 0; i < 64; i++ {
		_, progress, stop := wd.guard(context.Background(), "early-finish")
		progress()
		stop() // the compile finished before the first tick
	}
	waitNoWatchdogGoroutines(t)
	if v, _ := m.Snapshot().Counter("service/watchdog/fired"); v != 0 {
		t.Errorf("service/watchdog/fired = %d after clean early finishes, want 0", v)
	}
}

// TestWatchdogNoLeakOnShutdown pins the server-shutdown path: a guard
// whose parent context is canceled (the job store's ctx during Shutdown
// or Kill) must release its goroutine even if the owner never reaches
// its stop call, and a post-cancel stop must stay a safe no-op.
func TestWatchdogNoLeakOnShutdown(t *testing.T) {
	m := obs.NewRegistry()
	wd := newWatchdog(time.Hour, m, nil)
	ctx, cancel := context.WithCancel(context.Background())
	gctx, _, stop := wd.guard(ctx, "shutdown")
	cancel() // server shutdown cancels the store ctx under the compile
	select {
	case <-gctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("guard context did not observe parent cancellation")
	}
	waitNoWatchdogGoroutines(t)
	if stalled(gctx) {
		t.Error("parent cancellation misreported as a stall")
	}
	stop() // late stop after shutdown must not panic or double-count
	if v, _ := m.Snapshot().Counter("service/watchdog/fired"); v != 0 {
		t.Errorf("service/watchdog/fired = %d after shutdown, want 0", v)
	}
}

// TestWatchdogDisabledIsPassthrough asserts a zero window adds nothing:
// same context back, no goroutine.
func TestWatchdogDisabledIsPassthrough(t *testing.T) {
	wd := newWatchdog(0, obs.NewRegistry(), nil)
	ctx := context.Background()
	gctx, progress, stop := wd.guard(ctx, "off")
	if gctx != ctx {
		t.Fatal("disabled watchdog wrapped the context")
	}
	progress()
	stop()
}

// TestWatchdogAbortsStuckCompile wedges a live compile via the chaos
// hook and asserts the service aborts it with 504, counts the abort,
// and emits the WatchdogFired event.
func TestWatchdogAbortsStuckCompile(t *testing.T) {
	var events []obs.Event
	var mu chanLocker
	m := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers:        2,
		Metrics:        m,
		WatchdogWindow: 30 * time.Millisecond,
		Events: obs.EventObserverFunc(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	})
	_ = s
	SetChaosHooks(&ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		time.Sleep(300 * time.Millisecond) // ≫ 2× window: starves the watchdog
	}})
	t.Cleanup(func() { SetChaosHooks(nil) })

	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "rd32_270", "no_cache": true})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stuck compile answered %d (%s), want 504", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "stalled") {
		t.Errorf("504 body %s does not name the stall", body)
	}
	snap := m.Snapshot()
	if v, _ := snap.Counter("service/watchdog/fired"); v < 1 {
		t.Errorf("service/watchdog/fired = %d, want ≥ 1", v)
	}
	if v, _ := snap.Counter("service/watchdog/aborted"); v != 1 {
		t.Errorf("service/watchdog/aborted = %d, want 1", v)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, e := range events {
		if e.Kind == obs.WatchdogFired {
			found = true
			if e.Job != -1 || e.Err == nil {
				t.Errorf("WatchdogFired event = %+v, want Job -1 and a cause", e)
			}
		}
	}
	if !found {
		t.Error("no WatchdogFired event emitted")
	}
}

// chanLocker is a tiny mutex (avoids importing sync just for the test).
type chanLocker struct{ ch chan struct{} }

func (l *chanLocker) Lock() {
	if l.ch == nil {
		l.ch = make(chan struct{}, 1)
	}
	l.ch <- struct{}{}
}
func (l *chanLocker) Unlock() { <-l.ch }

// TestPanicRecoveryMiddleware panics a live compile via the chaos hook
// and asserts the handler answers a 500 JSON envelope, the panic is
// counted and reported, the metrics identity holds, and the server
// keeps serving afterwards.
func TestPanicRecoveryMiddleware(t *testing.T) {
	var events []obs.Event
	var mu chanLocker
	m := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers: 2,
		Metrics: m,
		Events: obs.EventObserverFunc(func(e obs.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}),
	})
	_ = s
	SetChaosHooks(&ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		panic("chaos: injected pass bug")
	}})
	t.Cleanup(func() { SetChaosHooks(nil) })

	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "rd32_270", "no_cache": true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking compile answered %d (%s), want 500", resp.StatusCode, body)
	}
	var env map[string]string
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %s", body)
	}
	if !strings.Contains(env["error"], "injected pass bug") {
		t.Errorf("error envelope %q does not carry the panic value", env["error"])
	}

	SetChaosHooks(nil)
	if resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"benchmark": "rd32_270"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d (%s)", resp.StatusCode, body)
	}

	snap := m.Snapshot()
	if v, _ := snap.Counter("service/panics"); v != 1 {
		t.Errorf("service/panics = %d, want 1", v)
	}
	reqs, _ := snap.Counter("service/requests")
	ok, _ := snap.Counter("service/requests-ok")
	failed, _ := snap.Counter("service/requests-failed")
	if reqs != ok+failed {
		t.Errorf("metrics identity broken: requests %d != ok %d + failed %d", reqs, ok, failed)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, e := range events {
		if e.Kind == obs.HandlerPanic {
			found = true
			if e.Err == nil || !strings.Contains(e.Err.Error(), "injected pass bug") {
				t.Errorf("HandlerPanic event %+v does not carry the panic", e)
			}
			if e.Method != "POST /v1/compile" {
				t.Errorf("HandlerPanic Method = %q", e.Method)
			}
		}
	}
	if !found {
		t.Error("no HandlerPanic event emitted")
	}
}

// makeStoredJob registers a synthetic batch directly in the store;
// running selects whether its done channel stays open.
func makeStoredJob(s *JobStore, id string, running bool) *batchJob {
	j := &batchJob{id: id, count: 1, done: make(chan struct{})}
	if !running {
		j.results = []jobResult{{Error: "x"}}
		close(j.done)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// TestEvictAllRunningOvershoot pins evictLocked's escape hatch: when
// every stored batch is still running, the bound is allowed to
// overshoot rather than evict a batch a poller could still be waiting
// on — and the overshoot is reclaimed once batches finish.
func TestEvictAllRunningOvershoot(t *testing.T) {
	s := newJobStore(1, obs.NewRegistry())
	defer s.cancel()
	j1 := makeStoredJob(s, "job-000001", true)
	j2 := makeStoredJob(s, "job-000002", true)
	makeStoredJob(s, "job-000003", true)

	s.mu.Lock()
	s.evictLocked()
	if len(s.jobs) != 3 {
		t.Fatalf("evicted a running batch: %d stored, want 3 (overshoot)", len(s.jobs))
	}
	s.mu.Unlock()

	// One batch finishes: the next eviction reclaims exactly it.
	close(j1.done)
	s.mu.Lock()
	s.evictLocked()
	if _, alive := s.jobs["job-000001"]; alive {
		t.Error("finished batch job-000001 not evicted")
	}
	if len(s.jobs) != 2 {
		t.Fatalf("%d stored after one completion, want 2 (still overshooting)", len(s.jobs))
	}
	s.mu.Unlock()

	// The rest finish: eviction converges to the bound, keeping the
	// newest.
	close(j2.done)
	s.mu.Lock()
	s.evictLocked()
	if len(s.jobs) != 1 {
		t.Fatalf("%d stored after all completions, want 1", len(s.jobs))
	}
	if _, alive := s.jobs["job-000003"]; !alive {
		t.Error("newest batch evicted; eviction order is not oldest-first")
	}
	s.mu.Unlock()
}

// TestEvictOrderAfterInterleavedCompletions pins the eviction order
// when completions interleave with running batches: the oldest
// *completed* batches go first, running ones are skipped regardless of
// age, and insertion order is preserved for survivors.
func TestEvictOrderAfterInterleavedCompletions(t *testing.T) {
	s := newJobStore(3, obs.NewRegistry())
	defer s.cancel()
	makeStoredJob(s, "job-000001", true)  // oldest, running
	makeStoredJob(s, "job-000002", false) // completed
	makeStoredJob(s, "job-000003", true)  // running
	makeStoredJob(s, "job-000004", false) // completed
	makeStoredJob(s, "job-000005", false) // newest, completed

	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()

	// 5 stored, bound 3: evict job-2 then job-4 — the two oldest
	// *completed* batches — and stop at the bound. job-1 and job-3
	// survive by virtue of running despite being older; job-5 survives
	// by recency despite being completed.
	for _, id := range []string{"job-000002", "job-000004"} {
		if _, alive := s.jobs[id]; alive {
			t.Errorf("%s still stored, want evicted", id)
		}
	}
	for _, id := range []string{"job-000001", "job-000003", "job-000005"} {
		if _, alive := s.jobs[id]; !alive {
			t.Errorf("%s evicted, want stored", id)
		}
	}
	want := []string{"job-000001", "job-000003", "job-000005"}
	if len(s.order) != len(want) {
		t.Fatalf("order = %v, want %v", s.order, want)
	}
	for i, id := range want {
		if s.order[i] != id {
			t.Fatalf("order = %v, want %v", s.order, want)
		}
	}
}
