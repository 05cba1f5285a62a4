package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/wire"
)

// Config sizes a Server. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Workers bounds concurrent compiles (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds compiles waiting for a worker beyond Workers
	// (default 64; negative means no queue — a busy server rejects
	// immediately). A full queue answers 429 with Retry-After.
	QueueDepth int
	// CacheBytes caps the content-addressed schedule cache (default
	// 64 MiB; negative disables caching).
	CacheBytes int64
	// MaxStoredJobs bounds retained async batches (default 64; completed
	// batches beyond the bound are evicted oldest-first).
	MaxStoredJobs int
	// DefaultTimeout bounds a compile when the request doesn't (default
	// 60s); MaxTimeout clamps request-supplied timeouts (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// NodeID, when non-empty, names this node in the X-Hilight-Node
	// response header — cluster deployments use it to make worker
	// placement observable to clients and tests.
	NodeID string
	// TenantQuota bounds concurrently admitted work per tenant (the
	// X-Hilight-Tenant request header; absent means the default tenant):
	// a tenant may hold at most this many sync compiles plus running
	// async batches at once, and excess submissions answer 429 without
	// consuming queue tickets. 0 disables per-tenant quotas.
	TenantQuota int
	// Metrics receives the service's metric families (service/...,
	// cache/..., jobs/...) alongside the compiler's own (pipeline/...,
	// route/..., batch/...). Nil creates a private registry; either way
	// it is served at GET /metrics.
	Metrics *obs.Registry
	// Events, when non-nil, observes async batch job lifecycles (wire it
	// to obs.NewLogObserver for an access-log-style stream) plus
	// service-level incidents: watchdog aborts and recovered handler
	// panics.
	Events obs.EventObserver
	// JournalDir, when non-empty, enables the durable job journal: every
	// acknowledged POST /v1/jobs batch is written to an fsync-batched
	// append-only log under this directory before the 202 returns, each
	// job's outcome is journaled as it lands, and on startup the journal
	// is replayed — finished batches are served verbatim, unfinished ones
	// resurrected with only their incomplete jobs re-run — then
	// compacted. Empty disables journaling (the seed behavior).
	JournalDir string
	// WatchdogWindow enables the compile watchdog: a compile observing
	// no routing-cycle progress for a full window is aborted (sync
	// compiles answer 504; batch jobs fail with the stall cause) and
	// counted under service/watchdog/{fired,aborted}. 0 disables.
	WatchdogWindow time.Duration
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.MaxStoredJobs <= 0 {
		c.MaxStoredJobs = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Server is the hilightd HTTP service: compile endpoints in front of the
// hilight compiler, with the schedule cache and admission control
// between them. Create with New, expose via Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *scheduleCache
	admit    *admission
	jobs     *JobStore
	watchdog *watchdog

	requests  *obs.Counter
	succeeded *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	panics    *obs.Counter
	seconds   *obs.Histogram
	// compileSeconds observes only real (uncached, admitted) sync
	// compiles; the Retry-After derivation reads its running average.
	compileSeconds *obs.Histogram
	// Session engine meters: If-Fingerprint-Match recompiles, the subset
	// that fell back to a cold compile (no replayable prefix), parent
	// misses answered 412, and the defect feed's sweep outcomes.
	sessions         *obs.Counter
	sessionCold      *obs.Counter
	sessionMisses    *obs.Counter
	defectFeeds      *obs.Counter
	defectEvicted    *obs.Counter
	defectRecompiled *obs.Counter
}

// New returns a configured Server. With Config.JournalDir set it also
// replays and compacts the journal, which can fail (unreadable
// directory, unwritable log) — a journal-less New never errors.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	m := cfg.Metrics
	s := &Server{
		cfg:              cfg,
		mux:              http.NewServeMux(),
		cache:            newScheduleCache(cfg.CacheBytes, m),
		admit:            newAdmission(cfg.Workers, cfg.QueueDepth, cfg.TenantQuota, m),
		jobs:             newJobStore(cfg.MaxStoredJobs, m),
		watchdog:         newWatchdog(cfg.WatchdogWindow, m, cfg.Events),
		requests:         m.Counter("service/requests"),
		succeeded:        m.Counter("service/requests-ok"),
		failed:           m.Counter("service/requests-failed"),
		canceled:         m.Counter("service/requests-canceled"),
		panics:           m.Counter("service/panics"),
		seconds:          m.Histogram("service/request-seconds", obs.DurationBuckets),
		compileSeconds:   m.Histogram("service/compile-seconds", obs.DurationBuckets),
		sessions:         m.Counter("service/sessions"),
		sessionCold:      m.Counter("service/session-cold-fallbacks"),
		sessionMisses:    m.Counter("service/session-parent-misses"),
		defectFeeds:      m.Counter("service/defect-feeds"),
		defectEvicted:    m.Counter("service/defect-evictions"),
		defectRecompiled: m.Counter("service/defect-recompiles"),
	}
	s.jobs.plan = s.planBatch
	s.jobs.cache = s.cache
	if cfg.JournalDir != "" {
		batches, sessions, err := s.jobs.attachJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.warmCache(batches)
		s.seedSessions(sessions)
		s.jobs.restore(batches)
	}
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/defects", s.handleDefects)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobsSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobsStatus)
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// warmCache seeds the schedule cache with every successful result the
// journal replayed: a resurrected batch (or a fresh request for the
// same circuit) then serves those fingerprints without recompiling.
func (s *Server) warmCache(batches []*replayBatch) {
	for _, rb := range batches {
		for i := range rb.results {
			r := rb.results[i].Result
			if r == nil || r.Fingerprint == "" {
				continue
			}
			cp := *r
			cp.Cached = false // stored form; Get flips the flag on hits
			s.cache.Put(cp.Fingerprint, &cp)
		}
	}
}

// seedSessions reinstalls journaled session results into the schedule
// cache: a restarted daemon then resolves If-Fingerprint-Match parents —
// and serves repeat fingerprints — exactly as its previous life did,
// resurrecting warm-start lineage across crashes.
func (s *Server) seedSessions(sessions []*journalRecord) {
	for _, rec := range sessions {
		var sr storedResult
		if json.Unmarshal(rec.Res, &sr) != nil || sr.Fingerprint == "" || len(sr.ScheduleBin) == 0 {
			continue
		}
		sr.Cached = false // stored form; Get flips the flag on hits
		s.cache.Put(sr.Fingerprint, &sr)
	}
}

// Handler returns the server's HTTP handler: the route mux wrapped in
// the panic-recovery middleware (and, with a NodeID configured, the
// node-identification header).
func (s *Server) Handler() http.Handler {
	h := s.recoverer(s.mux)
	if s.cfg.NodeID == "" {
		return h
	}
	inner := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Hilight-Node", s.cfg.NodeID)
		inner.ServeHTTP(w, r)
	})
}

// recoverer converts a handler panic into a 500 JSON error envelope
// instead of an aborted connection, counts it (service/panics), and
// emits a HandlerPanic event carrying the stack. http.ErrAbortHandler
// is re-panicked — it is net/http's sanctioned way to drop a
// connection, not a bug. If the handler already wrote its header the
// body may be torn mid-stream; nothing recoverable can be sent then,
// so the middleware only reports.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackedWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			if s.cfg.Events != nil {
				s.cfg.Events.OnEvent(obs.Event{
					Kind: obs.HandlerPanic, Job: -1,
					Method: r.Method + " " + r.URL.Path,
					Err:    fmt.Errorf("panic: %v\n%s", rec, debug.Stack()),
				})
			}
			if !tw.wrote {
				s.fail(tw, &apiError{Status: http.StatusInternalServerError,
					Message: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackedWriter records whether a response header went out, so the
// recovery middleware knows if a 500 can still be delivered.
type trackedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackedWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackedWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so the streaming path can push
// frames through the recovery middleware (no-op if the transport can't
// flush).
func (t *trackedWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Metrics returns the registry the server meters into (and serves at
// GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Drain flips the server to its terminal draining state: readyz starts
// failing and new compile work is rejected with 503 while already-
// admitted requests finish. Idempotent.
func (s *Server) Drain() { s.admit.drain() }

// Shutdown gracefully stops the server's own work: it drains admission,
// then waits — bounded by ctx — for running async batches. In-flight
// HTTP requests are the http.Server's to drain; call its Shutdown after
// (or concurrently with) this one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Drain()
	return s.jobs.Shutdown(ctx)
}

// Kill hard-stops the server, emulating a process crash for recovery
// tests: admission rejects new work, running batches are canceled, and
// the journal drops records that never reached an fsync — exactly the
// state a kill -9 leaves on disk. Unlike Shutdown it does not wait for
// batches to finish gracefully, only for their goroutines to observe
// the cancellation and exit.
func (s *Server) Kill() {
	s.admit.drain()
	s.jobs.Kill()
}

// handleCompile serves POST /v1/compile: fingerprint, cache lookup,
// admission, compile, cache fill. The response form is negotiated: the
// default is the historical JSON envelope, Accept:
// application/x-hilight-sched answers the raw binary schedule with the
// envelope metadata in X-Hilight-* headers, and ?stream=1 switches to a
// chunked layer stream fed by the router's emit hook while the compile
// is still running.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	t0 := time.Now()
	defer func() { s.seconds.ObserveDuration(time.Since(t0)) }()

	var req compileRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	mode := negotiate(r)
	pri, err := parsePriority(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	streaming := r.URL.Query().Get("stream") == "1"
	if streaming {
		// Streamed frames are the router's raw per-cycle output; options
		// that rewrite or restart the schedule after routing would make the
		// stream disagree with (compact) or duplicate (fallback) it.
		if req.Compact {
			s.fail(w, badRequest("stream=1 cannot be combined with compact: compaction rewrites layers after routing"))
			return
		}
		if len(req.Fallback) > 0 {
			s.fail(w, badRequest("stream=1 cannot be combined with fallback: a fallback compile restarts routing mid-stream"))
			return
		}
	}
	parentFP := r.Header.Get("If-Fingerprint-Match")
	if parentFP != "" && streaming {
		// A replayed prefix streams instantly while the suffix routes live;
		// mixing the two framing regimes isn't supported.
		s.fail(w, badRequest("stream=1 cannot be combined with If-Fingerprint-Match"))
		return
	}
	c, g, opts, err := req.build()
	if err != nil {
		s.fail(w, err)
		return
	}
	fp, err := hilight.Fingerprint(c, g, opts...)
	if err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}

	if !req.NoCache {
		if sr, ok := s.cache.Get(fp); ok {
			hit := *sr // shallow copy; ScheduleBin bytes are immutable
			hit.Cached = true
			if streaming {
				s.streamStored(w, &hit)
				return
			}
			s.respond(w, mode, &hit)
			return
		}
	}

	// A session recompile resolves its parent before admission: a 412 is
	// cheap and the client should learn about a lost parent immediately,
	// not after queueing. The parent comes from the schedule cache, which
	// the journal replay re-seeds on boot — so lineage survives restarts.
	var parentC *hilight.Circuit
	var parentSched *hilight.Schedule
	if parentFP != "" {
		parent, ok := s.cache.Get(parentFP)
		if !ok || len(parent.ReqJSON) == 0 {
			s.sessionMisses.Inc()
			s.fail(w, &apiError{Status: http.StatusPreconditionFailed,
				Message: fmt.Sprintf("parent fingerprint %q not cached; recompile cold", parentFP)})
			return
		}
		// Request building is deterministic, so the recorded request
		// reproduces the parent's input circuit exactly — no need to
		// store the circuit a second time in the cache entry.
		var preq compileRequest
		err = json.Unmarshal(parent.ReqJSON, &preq)
		if err == nil {
			parentC, _, _, err = preq.build()
		}
		if err == nil {
			parentSched, err = hilight.DecodeScheduleBinary(parent.ScheduleBin)
		}
		if err != nil {
			s.fail(w, &apiError{Status: http.StatusInternalServerError,
				Message: fmt.Sprintf("cached parent %q corrupt: %v", parentFP, err)})
			return
		}
	}

	release, err := s.admit.acquireFor(r.Context(), tenantOf(r), pri)
	if err != nil {
		s.failAdmission(w, r, err)
		return
	}
	defer release()

	timeout := clampTimeout(req.TimeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	wctx, progress, stopWd := s.watchdog.guard(r.Context(), "POST /v1/compile")
	defer stopWd()
	opts = append(opts,
		hilight.WithContext(wctx),
		hilight.WithTimeout(timeout),
		hilight.WithMetrics(s.cfg.Metrics),
		hilight.WithObserver(func(cs hilight.CycleStats) {
			progress() // every routing cycle feeds the watchdog
			routeCycleHook(cs)
		}),
	)
	var enc *wire.StreamEncoder
	if streaming {
		// The stream goes out under a 200 the moment the router seals its
		// first cycle. Errors after that point can only be delivered
		// in-band as an 'X' frame — including a pass panic: frames are
		// single Write calls, so a panic lands between frames and the
		// abort below closes the stream well-formed instead of truncating
		// it. The re-panic hands the original value to the recovery
		// middleware for its usual counting and event report.
		w.Header().Set("Content-Type", wire.StreamContentType)
		w.Header().Set("X-Hilight-Fingerprint", fp)
		enc = wire.NewStreamEncoder(FlushingWriter(w))
		defer func() {
			if rec := recover(); rec != nil {
				if rec != http.ErrAbortHandler && enc.Started() {
					s.failed.Inc()
					_ = enc.Abort(fmt.Sprintf("internal error: %v", rec))
				}
				panic(rec)
			}
		}()
		opts = append(opts, hilight.WithScheduleSink(enc))
	}
	t1 := time.Now()
	var res *hilight.Result
	if parentSched != nil {
		s.sessions.Inc()
		res, err = hilight.RecompileFrom(parentC, parentSched, c, g, opts...)
		if err == nil && res.WarmCycles == 0 {
			s.sessionCold.Inc()
		}
	} else {
		res, err = hilight.Compile(c, g, opts...)
	}
	stopWd()
	s.compileSeconds.ObserveDuration(time.Since(t1))
	if err != nil {
		if enc != nil && enc.Started() {
			s.failed.Inc()
			msg := err.Error()
			if stalled(wctx) {
				// The watchdog killed a stream mid-flight: the abort frame
				// carries the stall cause, and the abort is counted exactly
				// like its 504 sibling below.
				s.watchdog.aborted.Inc()
				msg = context.Cause(wctx).Error()
			}
			_ = enc.Abort(msg)
			return
		}
		if stalled(wctx) {
			s.watchdog.aborted.Inc()
			s.fail(w, &apiError{Status: http.StatusGatewayTimeout,
				Message: context.Cause(wctx).Error()})
			return
		}
		s.failCompile(w, r, err)
		return
	}
	sr, err := newStoredResult(fp, res)
	if err != nil {
		if enc != nil && enc.Started() {
			s.failed.Inc()
			_ = enc.Abort(err.Error())
			return
		}
		s.fail(w, &apiError{Status: 500, Message: err.Error()})
		return
	}
	sr.Parent = parentFP
	// Record the canonical request so this entry can later be a session
	// parent and a defect-feed recompile target. Marshaling the already-
	// decoded struct cannot fail.
	sr.ReqJSON, _ = json.Marshal(&req)
	if !req.NoCache {
		s.cache.Put(fp, sr)
	}
	if parentFP != "" && s.jobs.journal != nil {
		// The ack below promises the session result exists; the waited
		// fsync makes that promise crash-proof, mirroring the jobs ack.
		srJSON, _ := json.Marshal(sr)
		if err := s.jobs.journal.appendSession(fp, parentFP, srJSON); err != nil {
			s.fail(w, &apiError{Status: http.StatusInternalServerError,
				Message: fmt.Sprintf("journal session: %v", err)})
			return
		}
	}
	if enc != nil {
		// The layers already went out frame by frame; seal the stream with
		// the metadata trailer the JSON envelope would have carried.
		s.succeeded.Inc()
		meta, _ := json.Marshal(sr.meta())
		_ = enc.End(meta)
		return
	}
	s.respond(w, mode, sr)
}

// respMode is the negotiated response rendering for a sync compile.
type respMode int

const (
	// modeJSON is the historical default: the JSON envelope with the
	// schedule inline.
	modeJSON respMode = iota
	// modeBinary answers the raw binary wire payload with the envelope
	// metadata in X-Hilight-* headers.
	modeBinary
	// modeEnvelope answers the JSON envelope with the schedule as the
	// base64 binary payload (schedule_bin) instead of inline JSON — the
	// node-to-node form: full metadata for a byte-identical transcode at
	// the coordinator edge, at the binary payload's size.
	modeEnvelope
)

// negotiate picks the response mode from the Accept header: an explicit
// application/x-hilight-sched selects the raw binary payload,
// application/x-hilight-sched+json the binary-in-envelope form, and
// everything else — absent, application/json, */* — keeps the
// historical JSON default.
func negotiate(r *http.Request) respMode {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt := strings.TrimSpace(part)
			if i := strings.IndexByte(mt, ';'); i >= 0 {
				mt = strings.TrimSpace(mt[:i])
			}
			if mt == wire.BinaryEnvelopeContentType {
				return modeEnvelope
			}
			if mt == wire.Binary.ContentType() {
				return modeBinary
			}
		}
	}
	return modeJSON
}

// AcceptsBinary reports whether r's Accept header negotiates a binary
// schedule payload, raw or in the JSON envelope, instead of the default
// inline JSON. A job poll so negotiated gets every schedule as its
// binary schedule_bin payload, and the coordinator relays such compile
// responses untouched.
func AcceptsBinary(r *http.Request) bool { return negotiate(r) != modeJSON }

// tenantOf extracts the request's tenant for quota accounting; an absent
// header is the default (empty) tenant.
func tenantOf(r *http.Request) string { return r.Header.Get("X-Hilight-Tenant") }

// parsePriority maps the X-Hilight-Priority header onto an admission
// priority class. Absent or "interactive" is the high class; "batch"
// requests accept extra backpressure (they may only claim queue tickets
// while the queue is under half full, so interactive traffic always has
// headroom). Anything else is a request error.
func parsePriority(r *http.Request) (priorityClass, error) {
	switch r.Header.Get("X-Hilight-Priority") {
	case "", "interactive":
		return priorityInteractive, nil
	case "batch", "low":
		return priorityBatch, nil
	default:
		return priorityInteractive, badRequest("unknown X-Hilight-Priority %q (interactive, batch)", r.Header.Get("X-Hilight-Priority"))
	}
}

// respond renders a stored result for the negotiated mode. JSON keeps
// the historical enveloped response, byte for byte. The binary mode
// answers the raw wire payload as the body with the envelope metadata
// lifted into X-Hilight-* headers — no base64, no envelope tax. The
// envelope mode keeps the JSON envelope but carries the schedule as the
// binary payload.
func (s *Server) respond(w http.ResponseWriter, mode respMode, sr *storedResult) {
	if mode == modeBinary {
		h := w.Header()
		h.Set("Content-Type", wire.Binary.ContentType())
		h.Set("Content-Length", strconv.Itoa(len(sr.ScheduleBin)))
		h.Set("X-Hilight-Fingerprint", sr.Fingerprint)
		h.Set("X-Hilight-Cached", strconv.FormatBool(sr.Cached))
		h.Set("X-Hilight-Method", sr.Method)
		h.Set("X-Hilight-Latency-Cycles", strconv.Itoa(sr.LatencyCycles))
		if sr.Degraded {
			h.Set("X-Hilight-Fallback-Method", sr.FallbackMethod)
		}
		s.succeeded.Inc()
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(sr.ScheduleBin)
		return
	}
	resp, err := sr.response(mode != modeJSON)
	if err != nil {
		s.fail(w, &apiError{Status: 500, Message: err.Error()})
		return
	}
	s.succeeded.Inc()
	if mode == modeEnvelope {
		w.Header().Set("Content-Type", wire.BinaryEnvelopeContentType)
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// streamStored replays a cached schedule as a layer stream: the frames
// come from the stored binary payload instead of a live router, so a
// cache hit and a fresh compile are indistinguishable to a stream
// consumer (apart from the metadata trailer's cached flag).
func (s *Server) streamStored(w http.ResponseWriter, sr *storedResult) {
	schd, err := wire.Binary.Decode(sr.ScheduleBin)
	if err != nil {
		s.fail(w, &apiError{Status: 500, Message: fmt.Sprintf("stored schedule corrupt: %v", err)})
		return
	}
	meta, _ := json.Marshal(sr.meta())
	w.Header().Set("Content-Type", wire.StreamContentType)
	w.Header().Set("X-Hilight-Fingerprint", sr.Fingerprint)
	s.succeeded.Inc()
	// A write error means the client went away; nothing recoverable.
	_ = wire.StreamSchedule(wire.NewStreamEncoder(FlushingWriter(w)), schd, meta)
}

// flushWriter pushes every frame to the client as it is written — the
// point of ?stream=1 is holding layer 0 before the compile finishes, so
// frames must not sit in the response buffer.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// FlushingWriter wraps w so every Write is flushed to the client at
// once: streamed frames, here and relayed through a coordinator, never
// wait in the response buffer.
func FlushingWriter(w http.ResponseWriter) io.Writer {
	fw := &flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	return fw
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleJobsSubmit serves POST /v1/jobs.
func (s *Server) handleJobsSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if s.admit.draining.Load() {
		s.failAdmission(w, r, errDraining)
		return
	}
	var req jobsRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	// A batch holds one unit of its tenant's quota from ack to the last
	// job — released by the batch's completion hook, or here if the
	// submit never launches it.
	relTenant, err := s.admit.acquireTenant(tenantOf(r))
	if err != nil {
		s.admit.rejected.Inc()
		s.admit.quotaRejected.Inc()
		s.failAdmission(w, r, err)
		return
	}
	id, fps, err := s.jobs.submit(&req, r.Header, relTenant)
	if err != nil {
		relTenant()
		s.fail(w, err)
		return
	}
	s.succeeded.Inc()
	// The fingerprints let clients resubmit idempotently after a daemon
	// restart: a batch keyed by the same fingerprints compiles to the
	// same schedules, journal or not.
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "count": len(req.Jobs), "fingerprints": fps,
	})
}

// handleJobsStatus serves GET /v1/jobs/{id}.
func (s *Server) handleJobsStatus(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if s.jobs.WriteStatus(w, r) {
		s.succeeded.Inc()
	} else {
		s.failed.Inc()
	}
}

func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.succeeded.Inc()
	WriteJSON(w, http.StatusOK, map[string]any{"methods": hilight.Methods()})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.succeeded.Inc()
	WriteJSON(w, http.StatusOK, map[string]any{"benchmarks": hilight.BenchmarkNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.admit.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Metrics.WriteMetrics(w); err != nil {
		// The write failed mid-stream; nothing recoverable to send.
		return
	}
}

// MaxBodyBytes caps request bodies, on a node and on a coordinator.
const MaxBodyBytes = 8 << 20

// ReadBody reads a request body under MaxBodyBytes: a longer body is a
// 413, any other read error a 400 (see HTTPStatus). A node and a
// coordinator both read their bodies through it, so they answer alike.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &apiError{Status: http.StatusRequestEntityTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, badRequest("invalid request body: %v", err)
	}
	return body, nil
}

// decodeBody parses the JSON request body under MaxBodyBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	body, err := ReadBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(body, into)
}

// The derived Retry-After hint of a 429 is clamped to [minRetryAfter,
// maxRetryAfter]: past a minute the estimate says more about a
// pathological backlog than about when to retry, and well-behaved
// clients should poll by then anyway.
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

// retryAfterHint derives the 429 Retry-After from live load instead of
// a static value: the current backlog (queued + in-flight), in waves of
// cfg.Workers, times the recent average compile latency from the
// service/compile-seconds histogram. Before any compile has been
// observed — or if load is momentarily zero — it falls back to
// minRetryAfter; the result is clamped to [minRetryAfter,
// maxRetryAfter] and mirrored in the JSON error body as retry_after_ms
// so clients don't need to parse headers.
func (s *Server) retryAfterHint() time.Duration {
	hint := minRetryAfter
	if n := s.compileSeconds.Count(); n > 0 {
		avg := time.Duration(s.compileSeconds.Sum() / float64(n) * float64(time.Second))
		waves := s.admit.load()/max(s.cfg.Workers, 1) + 1
		hint = time.Duration(waves) * avg
	}
	return min(max(hint, minRetryAfter), maxRetryAfter)
}

// failAdmission renders admission-control rejections: 429 + Retry-After
// for a full queue or an exhausted tenant quota, 503 for a draining
// server, and a canceled wait as a client cancellation. The Retry-After
// value is mirrored in the JSON body as retry_after_ms so retrying
// clients need not parse headers.
func (s *Server) failAdmission(w http.ResponseWriter, r *http.Request, err error) {
	reject := func(msg string) {
		ra := s.retryAfterHint()
		w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
		s.failed.Inc()
		WriteJSON(w, http.StatusTooManyRequests, map[string]any{
			"error": msg, "retry_after_ms": ra.Milliseconds(),
		})
	}
	switch {
	case errors.Is(err, errQueueFull):
		reject("compile queue full; retry later")
	case errors.Is(err, errQuotaExceeded):
		reject(err.Error())
	case errors.Is(err, errDraining):
		s.fail(w, &apiError{Status: http.StatusServiceUnavailable, Message: "server is draining"})
	default: // context canceled while queued
		s.failCompile(w, r, fmt.Errorf("%w: %v", hilight.ErrCanceled, err))
	}
}

// failCompile maps compile errors onto HTTP statuses: client disconnects
// and deadlines to 499/504, semantic failures to 422.
func (s *Server) failCompile(w http.ResponseWriter, r *http.Request, err error) {
	var capErr *hilight.ErrInsufficientCapacity
	var routeErr *hilight.ErrUnroutable
	switch {
	case errors.Is(err, hilight.ErrCanceled):
		if r.Context().Err() != nil {
			// The client went away mid-compile; nobody will read the
			// response, but the status code keeps logs/metrics honest.
			s.canceled.Inc()
			s.failed.Inc()
			WriteJSON(w, statusClientClosedRequest, errorBody(err.Error()))
			return
		}
		s.fail(w, &apiError{Status: http.StatusGatewayTimeout, Message: err.Error()})
	case errors.As(err, &capErr), errors.As(err, &routeErr):
		s.fail(w, &apiError{Status: http.StatusUnprocessableEntity, Message: err.Error()})
	default:
		s.fail(w, &apiError{Status: http.StatusInternalServerError, Message: err.Error()})
	}
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response; there is no standard code.
const statusClientClosedRequest = 499

// fail renders err as the JSON error envelope and counts it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.failed.Inc()
	ae, ok := err.(*apiError)
	if !ok {
		ae = &apiError{Status: 500, Message: err.Error()}
	}
	WriteJSON(w, ae.Status, errorBody(ae.Message))
}

func errorBody(msg string) map[string]string { return map[string]string{"error": msg} }

// WriteJSON writes v as a JSON response with the encoder settings every
// endpoint shares (two-space indent, trailing newline), so a
// coordinator's own responses match a single node's byte for byte.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A mid-stream encode failure means the client is gone; nothing to do.
	_ = enc.Encode(v)
}
