// Package chaos is hilightd's crash/soak harness: it runs a real
// in-process daemon through randomized fault schedules — kill -9-style
// crashes and graceful restarts over one shared journal, mid-request
// client disconnects, slow-loris bodies, injected pass panics and
// stalls (via service.SetChaosHooks) — and asserts the resilience
// invariants the journal, watchdog and recovery middleware promise:
//
//   - no acknowledged job is ever lost: every 202-acked batch reaches
//     "done" with a full result set in some later life;
//   - no acknowledged job is duplicated: the journal never holds two
//     completion records for one (batch, job);
//   - results are deterministic: every sighting of a fingerprint, in
//     any process life, carries byte-identical schedule JSON;
//   - metrics reconcile after every life: requests == ok + failed,
//     batch jobs == succeeded + failed + panicked + canceled, and no
//     gauge is left dangling;
//   - nothing leaks: goroutines return to baseline when the run ends.
//
// Faults are injected through the real HTTP surface and the real
// compile pipeline, never through mocks, so the harness exercises the
// same code paths a production incident would.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/service"
)

// Config shapes one soak run. The zero value is not runnable; use
// Defaults (or the cmd/chaos flags) as a baseline.
type Config struct {
	// Seed fixes the fault schedule; equal seeds give equal schedules.
	Seed int64
	// Cycles is the number of daemon lives (boot ... stop). Each life
	// ends in a crash (probability KillProb) or a graceful shutdown;
	// the final life always stops gracefully after verifying everything.
	Cycles int
	// BatchesPerCycle async batches are submitted per life, each with
	// JobsPerBatch jobs drawn from the small Table 1 benchmarks.
	BatchesPerCycle int
	JobsPerBatch    int
	// JournalDir is the journal shared by every life.
	JournalDir string
	// KillProb is the per-cycle probability of a crash stop.
	KillProb float64
	// StallEvery / PanicEvery inject a watchdog stall / pass panic on
	// every Nth cycle (0 disables that fault).
	StallEvery int
	PanicEvery int
	// WatchdogWindow is the service's stall-detection window.
	WatchdogWindow time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Defaults returns the short-soak configuration used by `make
// chaos-short`: bounded (~30 s with -race), fixed seed, every fault
// class exercised.
func Defaults(journalDir string) Config {
	return Config{
		Seed:            1,
		Cycles:          22,
		BatchesPerCycle: 2,
		JobsPerBatch:    2,
		JournalDir:      journalDir,
		KillProb:        0.5,
		StallEvery:      7,
		PanicEvery:      5,
		// Generous window: under -race with a life's worth of resurrected
		// batches re-running concurrently, a single routing cycle can take
		// a surprising while — a tight window makes the watchdog abort
		// healthy compiles and the soak then measures its own impatience.
		WatchdogWindow: time.Second,
	}
}

// Report is the outcome of a Run. A clean soak has an empty Violations.
type Report struct {
	Cycles, Crashes, Graceful          int
	BatchesAcked, JobsAcked            int
	Stalls, Panics, Disconnects, Loris int
	// Resurrected totals the unfinished batches later lives picked back
	// up from the journal — proof the crash schedule actually interrupted
	// work rather than always landing between batches.
	Resurrected int64
	// Transient counts canceled job outcomes observed in done batches:
	// legitimate (the batch stays unsealed and re-runs next life), but
	// excluded from the determinism ledger.
	Transient int
	// Violations lists every broken invariant, empty when the soak held.
	Violations []string
}

func (r *Report) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// ackedBatch is what a client knows after a 202: the id and the
// fingerprints the ack promised. Everything the harness later verifies
// is phrased against this knowledge.
type ackedBatch struct {
	id  string
	fps []string
}

// outcome is the ledger value for one fingerprint: "ok:" + schedule
// JSON for a success, "err:" + message for a deterministic failure.
type outcome string

// benchPool is the job population: the smallest Table 1 circuits, so a
// soak cycle costs milliseconds of compile time, not seconds.
var benchPool = []string{"rd32_270", "4gt11_82", "4gt5_75", "alu-v0_26"}

// life is one daemon incarnation.
type life struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	m      *obs.Registry
	client *http.Client

	// handlers counts the life's running handler calls. crash waits for
	// them, so counters are read only once every request of the life has
	// ended, as after a real kill -9. dead, under mu, stops new calls
	// from starting once the crash has begun.
	mu       sync.Mutex
	dead     bool
	handlers sync.WaitGroup
}

func boot(cfg *Config) (*life, error) {
	m := obs.NewRegistry()
	srv, err := service.New(service.Config{
		Workers:        2,
		MaxStoredJobs:  4096, // retain everything: the soak verifies old ids
		JournalDir:     cfg.JournalDir,
		WatchdogWindow: cfg.WatchdogWindow,
		Metrics:        m,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	l := &life{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		m:      m,
		client: &http.Client{},
	}
	l.hs = &http.Server{Handler: l.track(srv.Handler())}
	go l.hs.Serve(ln)
	return l, nil
}

// track counts h's running calls in l.handlers; after a crash it turns
// requests away without running h, as a dead process would.
func (l *life) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		if l.dead {
			l.mu.Unlock()
			return
		}
		l.handlers.Add(1)
		l.mu.Unlock()
		defer l.handlers.Done()
		h.ServeHTTP(w, r)
	})
}

// crash emulates kill -9: connections dropped, no drain, journal tail
// beyond the last fsync lost. It returns once the handlers the dropped
// connections canceled have returned — a client that walked away
// earlier can leave one still compiling.
func (l *life) crash() {
	l.mu.Lock()
	l.dead = true
	l.mu.Unlock()
	l.hs.Close()
	l.srv.Kill()
	l.handlers.Wait()
	l.client.CloseIdleConnections()
}

// stop is the graceful path the real daemon takes on SIGTERM.
func (l *life) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	l.srv.Drain()
	herr := l.hs.Shutdown(ctx)
	serr := l.srv.Shutdown(ctx)
	l.client.CloseIdleConnections()
	if herr != nil {
		return herr
	}
	return serr
}

func (l *life) post(path string, body any) (*http.Response, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := l.client.Post(l.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out, err
}

func (l *life) get(path string) (*http.Response, []byte, error) {
	resp, err := l.client.Get(l.base + path)
	if err != nil {
		return nil, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out, err
}

// pollStatus is the decoded GET /v1/jobs/{id} body.
type pollStatus struct {
	Status  string `json:"status"`
	Count   int    `json:"count"`
	Results []struct {
		Error  string `json:"error"`
		Result *struct {
			Fingerprint string          `json:"fingerprint"`
			Schedule    json.RawMessage `json:"schedule"`
		} `json:"result"`
	} `json:"results"`
}

// Run executes the soak and returns its report. Violations are
// collected, not fatal: the full schedule runs so one broken invariant
// doesn't mask others. Run installs process-global chaos hooks; it must
// not race with another Run in the same process.
func Run(cfg Config) (*Report, error) {
	if cfg.Cycles <= 0 || cfg.JournalDir == "" {
		return nil, fmt.Errorf("chaos: config needs Cycles > 0 and a JournalDir")
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}
	baseline := runtime.NumGoroutine()

	// The hooks stay installed for the whole run; individual faults arm
	// them for exactly one routing cycle. Arms are only set while the
	// job store is quiesced, so the fault always hits the sync request
	// that armed it.
	var stallArm, panicArm atomic.Int64
	stallFor := 3 * cfg.WatchdogWindow
	service.SetChaosHooks(&service.ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		if panicArm.CompareAndSwap(1, 0) {
			panic("chaos: injected pass panic")
		}
		if stallArm.CompareAndSwap(1, 0) {
			time.Sleep(stallFor)
		}
	}})
	defer service.SetChaosHooks(nil)

	var acked []ackedBatch
	recentFrom := 0                // index in acked of the first batch from the previous life
	ledger := map[string]outcome{} // fingerprint -> first-seen outcome

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		cycleStart := time.Now()
		l, err := boot(&cfg)
		if err != nil {
			return rep, err
		}
		rep.Cycles++
		if fi, err := os.Stat(filepath.Join(cfg.JournalDir, "journal.jsonl")); err == nil {
			logf("cycle %d: boot %s (journal %d KiB)", cycle, time.Since(cycleStart).Round(time.Millisecond), fi.Size()/1024)
		}

		// Replay integrity: the journal a crash left behind must never
		// hold two completions for one job.
		if v, _ := l.m.Snapshot().Counter("journal/duplicate-completions"); v != 0 {
			rep.violatef("cycle %d: journal replay found %d duplicate completions", cycle, v)
		}

		// Phase 0 — settle. Batches acked in the previous life (the ones a
		// crash could have interrupted) are always verified: each must
		// reach "done" in this life with nothing lost and nothing
		// diverging. Older batches are spot-checked — re-downloading every
		// schedule every life would make the soak quadratic — and the
		// final cycle verifies everything ever acknowledged. This also
		// drains resurrected batches, quiescing the store before any
		// fault is armed.
		final := cycle == cfg.Cycles-1
		for idx, ab := range acked {
			if final || idx >= recentFrom || rng.Intn(8) == 0 {
				verifyBatch(l, ab, ledger, rep, cycle)
			}
		}
		recentFrom = len(acked)

		// Phase A — faults against the sync endpoint.
		if cfg.PanicEvery > 0 && cycle%cfg.PanicEvery == cfg.PanicEvery-1 {
			injectPanic(l, &panicArm, rep, cycle)
		}
		if cfg.StallEvery > 0 && cycle%cfg.StallEvery == cfg.StallEvery-1 {
			injectStall(l, &stallArm, rep, cycle)
		}
		switch rng.Intn(3) {
		case 0:
			injectDisconnect(l, rep)
		case 1:
			injectSlowLoris(l, rep, cycle)
		}
		if resp, _, err := l.get("/healthz"); err != nil || resp.StatusCode != http.StatusOK {
			rep.violatef("cycle %d: daemon unhealthy after faults: %v", cycle, err)
		}

		// Phase B — submit fresh batches; the ack (id + fingerprints) is
		// everything the harness remembers, exactly like a real client.
		for b := 0; b < cfg.BatchesPerCycle; b++ {
			ab, ok := submitBatch(l, rng, cfg.JobsPerBatch, rep, cycle)
			if ok {
				acked = append(acked, ab)
				rep.BatchesAcked++
				rep.JobsAcked += len(ab.fps)
			}
		}

		// Phase C — stop. The last cycle always stops gracefully so the
		// journal ends flushed; earlier cycles crash with KillProb.
		if v, _ := l.m.Snapshot().Counter("journal/resurrected-batches"); v > 0 {
			rep.Resurrected += v
		}
		if cycle < cfg.Cycles-1 && rng.Float64() < cfg.KillProb {
			// A victim batch right before the kill: a circuit slow enough
			// (tens to hundreds of ms) that the crash — which lands within
			// a few ms of the fsynced ack — interrupts it mid-compile,
			// forcing the next life to resurrect the batch from the
			// journal. Kept deliberately mid-size: every completed victim
			// schedule lives in the journal forever, and multi-MB journals
			// turn each subsequent boot's replay into seconds.
			victim := []string{"sqrt8_260", "sqrt8_260", "urf2_277"}[rng.Intn(3)]
			req := map[string]any{
				"jobs":    []map[string]any{{"benchmark": victim}},
				"compact": true,
				"seed":    1 + rng.Int63n(4),
			}
			if resp, body, err := l.post("/v1/jobs", req); err == nil && resp.StatusCode == http.StatusAccepted {
				var ack struct {
					ID           string   `json:"id"`
					Fingerprints []string `json:"fingerprints"`
				}
				if json.Unmarshal(body, &ack) == nil && ack.ID != "" {
					acked = append(acked, ackedBatch{id: ack.ID, fps: ack.Fingerprints})
					rep.BatchesAcked++
					rep.JobsAcked += len(ack.Fingerprints)
				}
			}
			l.crash()
			rep.Crashes++
			logf("cycle %d: crash (victim batch %s in flight) [%s]", cycle, victim, time.Since(cycleStart).Round(time.Millisecond))
		} else {
			if err := l.stop(); err != nil {
				rep.violatef("cycle %d: graceful stop failed: %v", cycle, err)
			}
			rep.Graceful++
			logf("cycle %d: graceful stop [%s]", cycle, time.Since(cycleStart).Round(time.Millisecond))
		}
		checkMetricIdentities(l.m, rep, cycle)
	}

	scanJournalForDuplicates(cfg.JournalDir, rep)
	checkGoroutines(baseline, rep)
	logf("soak done: %d cycles (%d crashes, %d graceful), %d batches/%d jobs acked, %d violations",
		rep.Cycles, rep.Crashes, rep.Graceful, rep.BatchesAcked, rep.JobsAcked, len(rep.Violations))
	return rep, nil
}

// verifyBatch polls one acknowledged batch to "done" and checks the
// no-loss and determinism invariants against the ack and the ledger.
func verifyBatch(l *life, ab ackedBatch, ledger map[string]outcome, rep *Report, cycle int) {
	deadline := time.Now().Add(60 * time.Second)
	var st pollStatus
	for {
		resp, body, err := l.get("/v1/jobs/" + ab.id)
		if err != nil {
			rep.violatef("cycle %d: poll %s: %v", cycle, ab.id, err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			rep.violatef("cycle %d: acked batch %s lost: %d %s", cycle, ab.id, resp.StatusCode, body)
			return
		}
		if err := json.Unmarshal(body, &st); err != nil {
			rep.violatef("cycle %d: poll %s: bad body %s", cycle, ab.id, body)
			return
		}
		if st.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			rep.violatef("cycle %d: acked batch %s never finished", cycle, ab.id)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Count != len(ab.fps) || len(st.Results) != len(ab.fps) {
		rep.violatef("cycle %d: batch %s has %d/%d results, acked %d jobs",
			cycle, ab.id, len(st.Results), st.Count, len(ab.fps))
		return
	}
	for i, r := range st.Results {
		var got outcome
		switch {
		case r.Result != nil:
			if r.Result.Fingerprint != ab.fps[i] {
				rep.violatef("cycle %d: batch %s job %d fingerprint %q, acked %q",
					cycle, ab.id, i, r.Result.Fingerprint, ab.fps[i])
				continue
			}
			got = outcome("ok:" + string(r.Result.Schedule))
		case strings.Contains(r.Error, "canceled"):
			// A canceled outcome is transient by contract: the service
			// reports it to live pollers but never journals it, the batch
			// stays unsealed, and the next life re-runs the job. It is an
			// answer, not THE answer — keep it out of the ledger.
			rep.Transient++
			continue
		case r.Error != "":
			got = outcome("err:" + r.Error)
		default:
			rep.violatef("cycle %d: batch %s job %d has no outcome", cycle, ab.id, i)
			continue
		}
		if first, seen := ledger[ab.fps[i]]; !seen {
			ledger[ab.fps[i]] = got
		} else if first != got {
			rep.violatef("cycle %d: fingerprint %s diverged: %s vs first-seen %s",
				cycle, ab.fps[i], clip(got), clip(first))
		}
	}
}

// submitBatch posts a randomized batch — benchmarks from the pool, a
// random seed, sometimes an explicit grid with a random dead tile (the
// defect-churn fault) — and returns what the ack promised.
func submitBatch(l *life, rng *rand.Rand, n int, rep *Report, cycle int) (ackedBatch, bool) {
	if n <= 0 {
		n = 1
	}
	jobs := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, map[string]any{"benchmark": benchPool[rng.Intn(len(benchPool))]})
	}
	req := map[string]any{
		"jobs":    jobs,
		"compact": true,
		"seed":    1 + rng.Int63n(4),
	}
	if rng.Intn(2) == 0 {
		// Defect churn: a 3×3 grid with one random dead tile still fits
		// every 5-qubit pool circuit; the outcome (success or a
		// deterministic routing failure) must be stable per fingerprint.
		for _, j := range jobs {
			j["grid"] = map[string]any{"w": 3, "h": 3}
		}
		req["defects"] = map[string]any{"tiles": []int{rng.Intn(9)}}
	}
	resp, body, err := l.post("/v1/jobs", req)
	if err != nil {
		rep.violatef("cycle %d: submit: %v", cycle, err)
		return ackedBatch{}, false
	}
	if resp.StatusCode != http.StatusAccepted {
		rep.violatef("cycle %d: submit rejected: %d %s", cycle, resp.StatusCode, body)
		return ackedBatch{}, false
	}
	var ack struct {
		ID           string   `json:"id"`
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == "" || len(ack.Fingerprints) != len(jobs) {
		rep.violatef("cycle %d: malformed ack %s", cycle, body)
		return ackedBatch{}, false
	}
	return ackedBatch{id: ack.ID, fps: ack.Fingerprints}, true
}

// injectPanic arms the pass-panic hook and drives a sync compile into
// it: the recovery middleware must answer a 500 JSON envelope and the
// daemon must keep serving.
func injectPanic(l *life, arm *atomic.Int64, rep *Report, cycle int) {
	rep.Panics++
	arm.Store(1)
	resp, body, err := l.post("/v1/compile", map[string]any{"benchmark": benchPool[0], "no_cache": true})
	if !arm.CompareAndSwap(1, 0) { // the hook consumed the arm: the panic really fired
		if err != nil {
			rep.violatef("cycle %d: panic fault: transport error %v (want a 500 envelope)", cycle, err)
			return
		}
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "injected pass panic") {
			rep.violatef("cycle %d: panic fault answered %d %s, want 500 envelope", cycle, resp.StatusCode, body)
		}
		return
	}
	// Arm never consumed (compile failed before routing); disarmed above.
	rep.violatef("cycle %d: panic fault never reached a routing cycle (%v, %d)", cycle, err, statusOf(resp))
}

// injectStall arms the stall hook (a sleep several watchdog windows
// long) and asserts the watchdog aborts the compile with 504.
func injectStall(l *life, arm *atomic.Int64, rep *Report, cycle int) {
	rep.Stalls++
	arm.Store(1)
	resp, body, err := l.post("/v1/compile", map[string]any{"benchmark": benchPool[1], "no_cache": true})
	if !arm.CompareAndSwap(1, 0) {
		if err != nil {
			rep.violatef("cycle %d: stall fault: transport error %v (want 504)", cycle, err)
			return
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			rep.violatef("cycle %d: stall fault answered %d %s, want 504", cycle, resp.StatusCode, body)
		}
		if v, _ := l.m.Snapshot().Counter("service/watchdog/fired"); v < 1 {
			rep.violatef("cycle %d: watchdog never fired on a stalled compile", cycle)
		}
		return
	}
	rep.violatef("cycle %d: stall fault never reached a routing cycle (%v, %d)", cycle, err, statusOf(resp))
}

// injectDisconnect opens a sync compile and walks away mid-request: the
// server must classify it (499 internally) and carry on.
func injectDisconnect(l *life, rep *Report) {
	rep.Disconnects++
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(map[string]any{"benchmark": "urf1_278", "no_cache": true})
	req, _ := http.NewRequestWithContext(ctx, "POST", l.base+"/v1/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if resp, err := l.client.Do(req); err == nil {
		// The compile beat the 2 ms fuse; fine, nothing to assert.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// injectSlowLoris dribbles half a request body over a raw connection
// and hangs up: the server must shed the connection without wedging.
func injectSlowLoris(l *life, rep *Report, cycle int) {
	rep.Loris++
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(l.base, "http://"), time.Second)
	if err != nil {
		rep.violatef("cycle %d: slow-loris dial: %v", cycle, err)
		return
	}
	fmt.Fprintf(conn, "POST /v1/compile HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 512\r\n\r\n{\"benchm")
	time.Sleep(20 * time.Millisecond)
	conn.Close()
}

// checkMetricIdentities asserts the counter algebra after a life ended:
// every request and batch job landed in exactly one terminal bucket,
// and no in-flight gauge dangles.
func checkMetricIdentities(m *obs.Registry, rep *Report, cycle int) {
	snap := m.Snapshot()
	reqs, _ := snap.Counter("service/requests")
	ok, _ := snap.Counter("service/requests-ok")
	failed, _ := snap.Counter("service/requests-failed")
	if reqs != ok+failed {
		rep.violatef("cycle %d: requests %d != ok %d + failed %d", cycle, reqs, ok, failed)
	}
	jobs, _ := snap.Counter("batch/jobs")
	var sum int64
	for _, name := range []string{"batch/jobs-succeeded", "batch/jobs-failed", "batch/jobs-panicked", "batch/jobs-canceled"} {
		v, _ := snap.Counter(name)
		sum += v
	}
	if jobs != sum {
		rep.violatef("cycle %d: batch/jobs %d != terminal sum %d", cycle, jobs, sum)
	}
	if v, _ := snap.Gauge("batch/inflight"); v != 0 {
		rep.violatef("cycle %d: batch/inflight = %d after stop", cycle, v)
	}
	if v, _ := snap.Gauge("jobs/batches-active"); v != 0 {
		rep.violatef("cycle %d: jobs/batches-active = %d after stop", cycle, v)
	}
}

// scanJournalForDuplicates parses the final journal file directly (as
// generic JSON, independent of the service's own reader) and asserts at
// most one completion record per (batch, job).
func scanJournalForDuplicates(dir string, rep *Report) {
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		rep.violatef("final journal unreadable: %v", err)
		return
	}
	seen := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue // a torn tail is legal; duplicates are not
		}
		if rec["kind"] == "job" {
			job, _ := rec["job"].(float64)
			seen[fmt.Sprintf("%v#%d", rec["id"], int(job))]++
		}
	}
	for key, n := range seen {
		if n > 1 {
			rep.violatef("journal holds %d completion records for %s", n, key)
		}
	}
}

// checkGoroutines waits for the process to settle back to its baseline
// goroutine count (small slack for runtime helpers).
func checkGoroutines(baseline int, rep *Report) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			rep.violatef("goroutine leak: %d alive, baseline %d\n%s", n, baseline, buf[:m])
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clip truncates an outcome for a violation message.
func clip(o outcome) string {
	if len(o) > 120 {
		return string(o[:120]) + "..."
	}
	return string(o)
}

func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}
