package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// Config sizes a Coordinator.
type Config struct {
	// Workers lists the worker base URLs (http://host:port). At least
	// one is required.
	Workers []string
	// NodeID names the coordinator in the X-Hilight-Node response
	// header (default "coordinator").
	NodeID string
	// ProbeInterval is the worker readiness probe period (default
	// 250ms). A worker failing a probe is marked down — the ring
	// reshards and its queued units move — within one interval.
	ProbeInterval time.Duration
	// MaxStoredJobs bounds retained async batches (default 64).
	MaxStoredJobs int
	// JournalDir, when non-empty, journals acknowledged async batches
	// exactly as service.Config.JournalDir does on a single node, so a
	// restarted coordinator serves finished batches and re-dispatches
	// the missing units of unfinished ones.
	JournalDir string
	// Metrics receives the cluster/... families. Nil creates a private
	// registry; either way it is served at GET /metrics.
	Metrics *obs.Registry
}

// dispatchPerWorker bounds concurrent async unit dispatches per worker.
// Sync compiles are forwarded inline and are bounded by the workers' own
// admission control.
const dispatchPerWorker = 2

func (c *Config) fillDefaults() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("cluster: no workers configured")
	}
	for _, w := range c.Workers {
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: worker %q is not a base URL (http://host:port)", w)
		}
	}
	if c.NodeID == "" {
		c.NodeID = "coordinator"
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.MaxStoredJobs <= 0 {
		c.MaxStoredJobs = 64
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	url  string
	name string // host:port; the per-worker metric label
	up   bool   // guarded by Coordinator.mu
	// upGauge mirrors up as cluster/up/<name> so tests and dashboards
	// see placement change the moment a probe does.
	upGauge *obs.Gauge
}

// Coordinator fronts a fleet of hilightd workers with the single-node
// HTTP API: sync compiles are consistent-hash-forwarded on the request
// fingerprint, async batches split into units that flow through the
// work-stealing queue, and the client-visible JSON stays byte-identical
// to a single node's, whose job store (service.JobStore) runs the
// batches. Create with New, expose via Handler, stop with Drain and
// Shutdown.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux
	// client performs node-to-node requests, with no global timeout
	// (compiles are long); probes use the short-timeout probeClient.
	client      *http.Client
	probeClient *http.Client

	mu       sync.Mutex
	workers  map[string]*workerState
	order    []string          // stable worker order (config order)
	ring     *ring             // over up workers only
	affinity map[string]string // fingerprint -> worker URL that served it

	queue    *stealQueue
	jobs     *service.JobStore
	draining atomic.Bool
	stop     chan struct{}
	halt     sync.Once
	wg       sync.WaitGroup

	forwards        *obs.Counter
	forwardRetry    *obs.Counter
	steals          *obs.Counter
	requeues        *obs.Counter
	hashMoves       *obs.Counter
	affinityHits    *obs.Counter
	sessionForwards *obs.Counter
	sessionAffinity *obs.Counter
	unitCacheHits   *obs.Counter
	unitsDone       *obs.Counter
	upCount         *obs.Gauge
	queueDepth      *obs.Gauge
}

// New returns a running Coordinator: the readiness prober and the
// per-worker dispatchers start immediately. All workers are assumed up
// until the first probe says otherwise, so traffic flows from the
// first request. With Config.JournalDir set it also replays the
// journal, which can fail.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	m := cfg.Metrics
	c := &Coordinator{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		client: &http.Client{},
		probeClient: &http.Client{
			Timeout: min(cfg.ProbeInterval, time.Second),
		},
		workers:  make(map[string]*workerState, len(cfg.Workers)),
		affinity: make(map[string]string),
		queue:    newStealQueue(cfg.Workers),
		stop:     make(chan struct{}),

		forwards:        m.Counter("cluster/forwards"),
		forwardRetry:    m.Counter("cluster/forward-retries"),
		steals:          m.Counter("cluster/steals"),
		requeues:        m.Counter("cluster/requeues"),
		hashMoves:       m.Counter("cluster/hash-moves"),
		affinityHits:    m.Counter("cluster/affinity-hits"),
		sessionForwards: m.Counter("cluster/session-forwards"),
		sessionAffinity: m.Counter("cluster/session-affinity-hits"),
		unitCacheHits:   m.Counter("cluster/unit-cache-hits"),
		unitsDone:       m.Counter("cluster/units-done"),
		upCount:         m.Gauge("cluster/worker-up"),
		queueDepth:      m.Gauge("cluster/queue-depth"),
	}
	for _, w := range cfg.Workers {
		u, _ := url.Parse(w)
		ws := &workerState{
			url: w, name: u.Host, up: true,
			upGauge: m.Gauge("cluster/up/" + u.Host),
		}
		ws.upGauge.Set(1)
		c.workers[w] = ws
		c.order = append(c.order, w)
	}
	c.ring = buildRing(c.order, ringVnodes)
	c.upCount.Set(int64(len(c.order)))
	// Resumed batches queue their units here; the dispatchers started
	// below run them.
	jobs, err := service.OpenJobStore(cfg.MaxStoredJobs, cfg.JournalDir, m, c.dispatch)
	if err != nil {
		return nil, err
	}
	c.jobs = jobs

	c.mux.HandleFunc("POST /v1/compile", c.handleCompile)
	c.mux.HandleFunc("POST /v1/defects", c.handleDefects)
	c.mux.HandleFunc("POST /v1/jobs", c.handleJobsSubmit)
	c.mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.jobs.WriteStatus(w, r)
	})
	c.mux.HandleFunc("GET /v1/methods", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{"methods": hilight.Methods()})
	})
	c.mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{"benchmarks": hilight.BenchmarkNames()})
	})
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WriteMetrics(w)
	})

	c.wg.Add(1)
	go c.probeLoop()
	for _, w := range cfg.Workers {
		for i := 0; i < dispatchPerWorker; i++ {
			c.wg.Add(1)
			go c.dispatcher(w)
		}
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler, stamping every
// response with the coordinator's node id.
func (c *Coordinator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Hilight-Node", c.cfg.NodeID)
		c.mux.ServeHTTP(w, r)
	})
}

// Drain flips the coordinator to draining: readyz starts failing and
// new compiles, batches and defect feeds answer 503, while polls and
// already-accepted units carry on. Idempotent.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// errStopped settles the units a stopping coordinator never ran. It
// wraps hilight.ErrCanceled, so the job store serves it without
// journaling it and a restart runs those units again.
var errStopped = fmt.Errorf("%w: coordinator stopped", hilight.ErrCanceled)

// stopDispatch drains and stops the prober and the dispatch queue,
// settling every unit still queued as stopped. Idempotent.
func (c *Coordinator) stopDispatch() {
	c.halt.Do(func() {
		c.Drain()
		close(c.stop)
		for _, t := range c.queue.close() {
			t.settle(nil, errStopped)
		}
	})
}

// Shutdown stops the prober and dispatchers. In-flight unit dispatches
// finish; queued units settle as stopped (the coordinator is going away
// — with a journal the next coordinator runs them, otherwise clients
// resubmit against the fingerprints the ack returned). Then the job
// store drains and closes its journal.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopDispatch()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("cluster: shutdown cut short: %w", ctx.Err())
	}
	return errors.Join(err, c.jobs.Shutdown(ctx))
}

// Kill hard-stops the coordinator, emulating a process crash the way
// service.Server.Kill does: unit dispatches are aborted and the job
// journal drops the records that never reached an fsync.
func (c *Coordinator) Kill() {
	c.stopDispatch()
	c.jobs.Kill()
	c.wg.Wait()
}

// liveWorkers returns the up worker count.
func (c *Coordinator) liveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ws := range c.workers {
		if ws.up {
			n++
		}
	}
	return n
}

// pickWorker routes a fingerprint: the worker that last served it when
// still up (affinity — so a unit a steal moved keeps hitting the warm
// cache it filled), otherwise the ring owner among up workers. The
// second return reports whether the affinity map (not the ring) decided
// — session routing meters that separately.
func (c *Coordinator) pickWorker(fp string) (*workerState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.affinity[fp]; ok {
		if ws := c.workers[w]; ws != nil && ws.up {
			c.affinityHits.Inc()
			return ws, true
		}
	}
	owner := c.ring.owner(fp)
	if owner == "" {
		return nil, false
	}
	return c.workers[owner], false
}

// noteServed records that worker w served fingerprint fp, steering
// repeats of fp back to w's now-warm cache.
func (c *Coordinator) noteServed(fp, w string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.affinity) >= 1<<16 {
		// Bound the map; losing affinity only costs a cache miss on the
		// ring owner, never correctness.
		clear(c.affinity)
	}
	c.affinity[fp] = w
}

// markDown transitions a worker to down: the ring reshards (counted in
// cluster/hash-moves over sampled probe keys), its dispatchers pause,
// and its queued units requeue to their new owners.
func (c *Coordinator) markDown(w string) {
	c.mu.Lock()
	ws := c.workers[w]
	if ws == nil || !ws.up {
		c.mu.Unlock()
		return
	}
	ws.up = false
	ws.upGauge.Set(0)
	c.rebuildRingLocked()
	c.mu.Unlock()

	for _, t := range c.queue.pause(w) {
		c.requeue(t, fmt.Sprintf("worker %s went down", ws.name))
	}
}

// markUp transitions a worker back to up and reshards the ring.
func (c *Coordinator) markUp(w string) {
	c.mu.Lock()
	ws := c.workers[w]
	if ws == nil || ws.up {
		c.mu.Unlock()
		return
	}
	ws.up = true
	ws.upGauge.Set(1)
	c.rebuildRingLocked()
	c.mu.Unlock()
	c.queue.resume(w)
}

// rebuildRingLocked rebuilds the ring over up workers and accounts the
// ownership churn. Caller holds mu.
func (c *Coordinator) rebuildRingLocked() {
	var up []string
	for _, w := range c.order {
		if c.workers[w].up {
			up = append(up, w)
		}
	}
	old := c.ring
	c.ring = buildRing(up, ringVnodes)
	c.hashMoves.Add(int64(moved(old, c.ring, 256)))
	c.upCount.Set(int64(len(up)))
}

// probeLoop polls every worker's /readyz each interval. A worker
// answering anything but 200 — draining (503), dead (connection
// refused), wedged (timeout) — is marked down; a 200 from a down
// worker brings it back.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			for _, w := range c.order {
				req, err := http.NewRequest("GET", w+"/readyz", nil)
				if err != nil {
					continue
				}
				resp, err := c.probeClient.Do(req)
				if err != nil {
					c.markDown(w)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					c.markUp(w)
				} else {
					c.markDown(w)
				}
			}
		}
	}
}

// maxAttempts bounds a unit's or forward's tries: every worker gets a
// turn, plus slack for a ring that reshards mid-retry.
func (c *Coordinator) maxAttempts() int { return len(c.cfg.Workers) + 2 }

// writeError renders the canonical JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(service.ErrorBody(msg))
}

// writeErr renders err with the status and message a single node would
// answer (see service.HTTPStatus).
func writeErr(w http.ResponseWriter, err error) {
	status, msg := service.HTTPStatus(err)
	writeError(w, status, msg)
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() || c.liveWorkers() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// passthrough reports whether the client negotiated a non-default
// response (binary, envelope, or a layer stream) that the coordinator
// relays verbatim instead of transcoding.
func passthrough(r *http.Request) bool {
	return r.URL.Query().Get("stream") == "1" || service.AcceptsBinary(r)
}

// handleCompile forwards a sync compile to the fingerprint's worker.
// The node-to-node response is the binary-payload envelope; the
// coordinator transcodes it back to the canonical JSON for default
// clients, so the body is byte-identical to a single node's. Clients
// that negotiated binary or streaming get the worker bytes relayed
// untouched.
func (c *Coordinator) handleCompile(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := service.ReadBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fp, err := service.DigestCompile(body)
	if err != nil {
		writeErr(w, err)
		return
	}
	pass := passthrough(r)
	c.forwards.Inc()

	// A session recompile routes on its *parent* fingerprint: the warm
	// start only pays off on the worker whose cache holds the parent, and
	// the affinity map knows which worker served it. The child lands in
	// that worker's cache too, so its affinity entry follows from
	// noteServed below.
	routeFP := fp
	if parent := r.Header.Get("If-Fingerprint-Match"); parent != "" {
		routeFP = parent
		c.sessionForwards.Inc()
	}

	// Forward the admission-relevant client headers plus the session
	// precondition (a worker missing the parent answers 412, which relays
	// to the client untouched).
	hdr := http.Header{}
	for _, h := range []string{"X-Hilight-Tenant", "X-Hilight-Priority", "If-Fingerprint-Match"} {
		if v := r.Header.Get(h); v != "" {
			hdr.Set(h, v)
		}
	}
	if pass {
		hdr["Accept"] = r.Header.Values("Accept")
	} else {
		hdr.Set("Accept", wire.BinaryEnvelopeContentType)
	}
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts(); attempt++ {
		ws, viaAffinity := c.pickWorker(routeFP)
		if routeFP != fp && viaAffinity {
			c.sessionAffinity.Inc()
		}
		if ws == nil {
			writeError(w, http.StatusServiceUnavailable, "no live workers")
			return
		}
		resp, err := c.call(r.Context(), ws, "/v1/compile?"+r.URL.RawQuery, body, hdr)
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away; nothing to retry for.
				return
			}
			lastErr = err
			c.forwardRetry.Inc()
			continue
		}
		c.relayCompile(w, resp, ws, fp, pass)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Sprintf("no worker could serve the compile: %v", lastErr))
}

// relayCompile writes a worker compile response to the client —
// transcoded for default JSON clients, verbatim for negotiated ones.
func (c *Coordinator) relayCompile(w http.ResponseWriter, resp *http.Response, ws *workerState, fp string, pass bool) {
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		c.noteServed(fp, ws.url)
	}
	w.Header().Set("X-Hilight-Worker", ws.name)
	if pass {
		for _, h := range relayedHeaders {
			if vs := resp.Header.Values(h); len(vs) > 0 {
				w.Header()[h] = vs
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(service.FlushingWriter(w), resp.Body)
		return
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", ws.name, err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		// Worker error envelopes are already the canonical JSON; relay
		// status and body untouched.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(respBody)
		return
	}
	out, meta, err := service.TranscodeEnvelope(respBody)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("worker %s envelope: %v", ws.name, err))
		return
	}
	if meta.Cached {
		c.unitCacheHits.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// relayedHeaders are the envelope-metadata headers a passthrough relay
// preserves.
var relayedHeaders = []string{
	"Content-Type", "Content-Length",
	"X-Hilight-Fingerprint", "X-Hilight-Cached", "X-Hilight-Method",
	"X-Hilight-Latency-Cycles", "X-Hilight-Fallback-Method",
}

// call posts the JSON body to path on worker ws, with hdr's headers, and
// returns the worker's response. A transport error or a 503 marks the
// worker down at once (the prober would only confirm it an interval
// later) and comes back as an error for the caller to retry or count,
// unless ctx is done: then the caller went away, not the worker.
func (c *Coordinator) call(ctx context.Context, ws *workerState, path string, body []byte, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", ws.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for h, vs := range hdr {
		req.Header[h] = vs
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.markDown(ws.url)
		}
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The worker is draining: reshard now and retry elsewhere.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.markDown(ws.url)
		return nil, fmt.Errorf("worker %s draining", ws.name)
	}
	return resp, nil
}

// handleDefects broadcasts a defect feed to every live worker — each
// worker sweeps and recompiles its own cache shard — and answers the
// aggregated sweep. Per-worker failures degrade the aggregate (counted
// in failed_workers) instead of failing the feed: the next level-
// triggered update repairs whatever a down worker missed.
func (c *Coordinator) handleDefects(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := service.ReadBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	c.mu.Lock()
	var targets []*workerState
	for _, wu := range c.order {
		if ws := c.workers[wu]; ws.up {
			targets = append(targets, ws)
		}
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no live workers")
		return
	}

	total := service.DefectsResponse{Fingerprints: map[string]string{}}
	failedWorkers := 0
	for _, ws := range targets {
		resp, err := c.call(r.Context(), ws, "/v1/defects", body, nil)
		if err != nil {
			failedWorkers++
			continue
		}
		var one service.DefectsResponse
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&one)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			failedWorkers++
			continue
		}
		total.Checked += one.Checked
		total.Conflicting += one.Conflicting
		total.Evicted += one.Evicted
		total.Recompiled += one.Recompiled
		total.Failed += one.Failed
		for old, nw := range one.Fingerprints {
			total.Fingerprints[old] = nw
		}
	}
	if len(total.Fingerprints) == 0 {
		total.Fingerprints = nil
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"checked": total.Checked, "conflicting": total.Conflicting,
		"evicted": total.Evicted, "recompiled": total.Recompiled,
		"failed": total.Failed, "fingerprints": total.Fingerprints,
		"workers": len(targets), "failed_workers": failedWorkers,
	})
}

// handleJobsSubmit acks a batch through the job store, with the same
// body a single node would; the store runs its units through dispatch.
func (c *Coordinator) handleJobsSubmit(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := service.ReadBody(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	id, fps, err := c.jobs.Submit(body, r.Header)
	if err != nil {
		writeErr(w, err)
		return
	}
	service.WriteJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "count": len(fps), "fingerprints": fps,
	})
}

// dispatch is the job store's run function: it fans a batch's listed
// units out through the steal queue and returns once each has settled.
// Units carry the submit's tenant and priority, also when the journal
// resumes the batch after a restart.
func (c *Coordinator) dispatch(ctx context.Context, units []service.Unit, todo []int, hdr http.Header, settle func(int, []byte, error)) {
	var wg sync.WaitGroup
	wg.Add(len(todo))
	tenant := hdr.Get("X-Hilight-Tenant")
	hi := hdr.Get("X-Hilight-Priority") != "batch" && hdr.Get("X-Hilight-Priority") != "low"
	for _, i := range todo {
		c.enqueue(&unitTask{
			fp: units[i].Fingerprint, body: units[i].Body, tenant: tenant, ctx: ctx,
			settle: func(env []byte, err error) {
				settle(i, env, err)
				wg.Done()
			},
		}, hi)
	}
	wg.Wait()
}

// enqueue routes a unit to its current owner's lanes.
func (c *Coordinator) enqueue(t *unitTask, hi bool) {
	ws, _ := c.pickWorker(t.fp)
	if ws == nil {
		t.settle(nil, errors.New("no live workers"))
		return
	}
	if !c.queue.push(ws.url, t, hi) {
		t.settle(nil, errStopped)
		return
	}
	c.queueDepth.Set(int64(c.queue.depth()))
}

// requeue sends a unit back through the queue after a dispatch
// failure, settling a terminal error once every worker has had a turn.
func (c *Coordinator) requeue(t *unitTask, reason string) {
	t.attempts++
	if t.attempts >= c.maxAttempts() {
		t.settle(nil, fmt.Errorf("unit failed after %d attempts: %s", t.attempts, reason))
		return
	}
	c.requeues.Inc()
	c.enqueue(t, true)
}

// dispatcher executes async units against one worker until the queue
// closes. Stolen units (taken from a hot peer's backlog) are counted;
// the affinity map then routes repeats of that fingerprint to wherever
// it actually ran.
func (c *Coordinator) dispatcher(worker string) {
	defer c.wg.Done()
	for {
		t, stolen := c.queue.pop(worker)
		if t == nil {
			return
		}
		if stolen {
			c.steals.Inc()
		}
		c.queueDepth.Set(int64(c.queue.depth()))
		c.execute(t, worker)
	}
}

// execute runs one unit against worker via the node-to-node envelope
// form and settles or requeues it.
func (c *Coordinator) execute(t *unitTask, worker string) {
	c.mu.Lock()
	ws := c.workers[worker]
	c.mu.Unlock()

	hdr := http.Header{"Accept": {wire.BinaryEnvelopeContentType}}
	if t.tenant != "" {
		hdr.Set("X-Hilight-Tenant", t.tenant)
	}
	resp, err := c.call(t.ctx, ws, "/v1/compile", t.body, hdr)
	if err != nil && t.ctx.Err() != nil {
		// The coordinator is going down, not the worker.
		t.settle(nil, errStopped)
		return
	}
	if err != nil {
		// The worker died or drains, or the connection broke mid-unit:
		// call took the worker out of the ring, and the unit retries
		// elsewhere. The unit was acked, so it must not be lost.
		c.requeue(t, err.Error())
		return
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		env, err := io.ReadAll(resp.Body)
		if err != nil {
			c.markDown(worker)
			c.requeue(t, err.Error())
			return
		}
		c.noteServed(t.fp, worker)
		c.unitsDone.Inc()
		if resp.Header.Get("X-Hilight-Cached") == "true" {
			c.unitCacheHits.Inc()
		}
		t.settle(env, nil)
	case resp.StatusCode == http.StatusTooManyRequests:
		// Backpressure, not death: the worker stays up, the unit goes
		// back in the queue (someone else may steal it).
		io.Copy(io.Discard, resp.Body)
		c.requeue(t, fmt.Sprintf("worker %s backpressured", ws.name))
	default:
		// A semantic failure (422, 400) is deterministic — retrying it
		// elsewhere would fail identically. Record it like the
		// single-node batch would.
		msg := readErrorMessage(resp.Body)
		if msg == "" {
			msg = fmt.Sprintf("worker %s answered %d", ws.name, resp.StatusCode)
		}
		t.settle(nil, errors.New(msg))
	}
}

// readErrorMessage extracts the message from a JSON error envelope.
func readErrorMessage(r io.Reader) string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&e); err != nil {
		return ""
	}
	return e.Error
}
