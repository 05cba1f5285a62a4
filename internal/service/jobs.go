package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hilight"
	"hilight/internal/obs"
)

// jobsRequest is the JSON body of POST /v1/jobs: a batch of circuits
// compiled asynchronously through hilight.CompileAll. Mirroring
// CompileAll's semantics, the options (method, seed, qco, compact,
// defects, fallback) are batch-level and shared by every entry; entries
// select only the circuit and grid.
//
// The request must round-trip through JSON losslessly: the job journal
// persists the decoded struct verbatim and resurrects batches by
// re-preparing it after a crash.
type jobsRequest struct {
	// Jobs lists the batch's circuit/grid pairs.
	Jobs []batchEntry `json:"jobs"`
	// Method, Seed, QCO, Compact, Defects and Fallback apply to every
	// job, exactly as one option list applies to a whole CompileAll.
	Method   string             `json:"method,omitempty"`
	Seed     *int64             `json:"seed,omitempty"`
	QCO      *bool              `json:"qco,omitempty"`
	Compact  bool               `json:"compact,omitempty"`
	Defects  *hilight.DefectMap `json:"defects,omitempty"`
	Fallback []string           `json:"fallback,omitempty"`
	// RouteWorkers sizes the parallel route pass's worker pool for every
	// job; unset falls back to the server default, then the method preset.
	// An execution knob only — excluded from each job's fingerprint.
	RouteWorkers *int `json:"route_workers,omitempty"`
	// Parallelism bounds the batch's worker pool; 0 (or values above the
	// server's worker count) use the server's worker count.
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS bounds the whole batch; 0 uses the server default scaled
	// by the batch's depth per worker.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// batchEntry is one async job: a circuit (QASM or benchmark) and its
// grid.
type batchEntry struct {
	QASM      string    `json:"qasm,omitempty"`
	Benchmark string    `json:"benchmark,omitempty"`
	Grid      *gridSpec `json:"grid,omitempty"`
}

// jobStatus is the JSON body of GET /v1/jobs/{id}.
type jobStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "running" or "done"
	Count  int    `json:"count"`
	// Finished counts terminally-finished jobs, live-updated while the
	// batch runs (fed by the batch's lifecycle events).
	Finished int `json:"finished"`
	// Results is present once Status is "done", in job order.
	Results []jobResultView `json:"results,omitempty"`
}

// jobResultView is the poll-time rendering of one job's outcome in the
// negotiated form: the stored binary schedule either transcoded back to
// JSON (the default, byte-identical to the historical responses) or
// passed through as the base64 schedule_bin payload.
type jobResultView struct {
	Error  string           `json:"error,omitempty"`
	Result *compileResponse `json:"result,omitempty"`
}

// jobResult is one batch entry's stored outcome: a stored result (with
// the schedule in the binary wire encoding) or an error, never both (the
// BatchResult invariant). This is also the journal's per-job completion
// payload, so the journal carries the compact encoding. Its zero value
// means "no outcome yet" — the journal replay layer relies on that to
// tell completed jobs from incomplete ones.
type jobResult struct {
	Error  string        `json:"error,omitempty"`
	Result *storedResult `json:"result,omitempty"`
}

// empty reports whether r carries no outcome.
func (r *jobResult) empty() bool { return r.Result == nil && r.Error == "" }

// batchJob is one stored async batch.
type batchJob struct {
	id       string
	count    int
	fps      []string      // per-job fingerprints, as acknowledged
	done     chan struct{} // closed when results are ready
	finished atomic.Int64  // terminally-finished jobs, for live polls
	// onDone, when non-nil, runs once when the batch finishes — the
	// submit path parks the tenant-quota release here so a batch counts
	// against its tenant from ack to completion.
	onDone func()

	mu      sync.Mutex
	results []jobResult
}

// jobStore owns the async batches: it runs each through CompileAll on a
// background goroutine, serves status polls, and bounds memory by
// evicting the oldest completed batches beyond maxStored. Shutdown
// cancels the store context and waits for running batches to drain.
//
// With a journal attached, every acknowledged submission, job
// completion, batch seal and eviction is also persisted; restore
// rebuilds the store from a replayed journal on startup.
type jobStore struct {
	mu        sync.Mutex
	seq       int
	jobs      map[string]*batchJob
	order     []string // insertion order, for eviction
	maxStored int

	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	metrics *obs.Registry
	// events, when non-nil, additionally receives every batch job's
	// lifecycle events (the log bridge in hilightd).
	events obs.EventObserver
	// journal, when non-nil, makes acknowledged batches durable.
	journal *journal
	// watchdog aborts batches that stop making routing-cycle progress.
	watchdog *watchdog
	// cache lets resurrected batches serve journal-missed completions
	// whose schedules a previous life already compiled and cached.
	cache *scheduleCache

	submitted *obs.Counter
	completed *obs.Counter
	active    *obs.Gauge
}

func newJobStore(maxStored int, m *obs.Registry) *jobStore {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobStore{
		jobs:      make(map[string]*batchJob),
		maxStored: maxStored,
		ctx:       ctx,
		cancel:    cancel,
		metrics:   m,
		submitted: m.Counter("jobs/batches"),
		completed: m.Counter("jobs/batches-completed"),
		active:    m.Gauge("jobs/batches-active"),
	}
}

// prepare validates a batch request and resolves it into the inputs a
// CompileAll run needs. It is shared by the submit path and journal
// resurrection, so a journaled request re-prepares through exactly the
// code that validated it at ack time. It mutates req only to inject the
// server-wide route-worker default (so a journaled request replays with
// the knobs it was acknowledged under).
func prepare(req *jobsRequest, workers, routeWorkers int, defTimeout, maxTimeout time.Duration) (
	batch []hilight.BatchJob, fps []string, shared []hilight.Option, parallelism int, timeout time.Duration, err error,
) {
	if req.RouteWorkers == nil && routeWorkers != 0 {
		req.RouteWorkers = &routeWorkers // server-wide default, as in /v1/compile
	}
	if _, batch, fps, shared, err = req.resolve(); err != nil {
		return nil, nil, nil, 0, 0, err
	}

	parallelism = req.Parallelism
	if parallelism <= 0 || parallelism > workers {
		parallelism = workers
	}
	// One deadline for the whole batch: the per-compile default scaled by
	// the batch's depth per worker, unless the request asks for less.
	waves := (len(batch) + parallelism - 1) / parallelism
	timeout = clampTimeout(req.TimeoutMS, time.Duration(waves)*defTimeout, time.Duration(waves)*maxTimeout)
	return batch, fps, shared, parallelism, timeout, nil
}

// resolve validates a batch request and resolves every entry up front,
// so a malformed entry fails the submit synchronously with a 400
// instead of surfacing later in a poll. It returns, per entry, the
// compileRequest carrying the batch-level options, the batch job it
// builds and its fingerprint, plus the option list shared by every job.
// The fingerprint therefore describes exactly the compile CompileAll
// will run. prepare and SplitJobs both expand batches here, so a
// coordinator's unit fingerprints equal the ones a single-node ack
// returns.
func (req *jobsRequest) resolve() (crs []compileRequest, batch []hilight.BatchJob, fps []string, shared []hilight.Option, err error) {
	if len(req.Jobs) == 0 {
		return nil, nil, nil, nil, badRequest("jobs batch is empty")
	}
	const maxBatch = 4096
	if len(req.Jobs) > maxBatch {
		return nil, nil, nil, nil, badRequest("jobs batch has %d entries (max %d)", len(req.Jobs), maxBatch)
	}
	crs = make([]compileRequest, len(req.Jobs))
	batch = make([]hilight.BatchJob, len(req.Jobs))
	fps = make([]string, len(req.Jobs))
	for i, e := range req.Jobs {
		crs[i] = compileRequest{
			QASM: e.QASM, Benchmark: e.Benchmark, Grid: e.Grid,
			Method: req.Method, Seed: req.Seed, QCO: req.QCO,
			Compact: req.Compact, Defects: req.Defects, Fallback: req.Fallback,
			RouteWorkers: req.RouteWorkers,
		}
		c, g, opts, err := crs[i].build()
		if err != nil {
			if ae, ok := err.(*apiError); ok {
				return nil, nil, nil, nil, &apiError{Status: ae.Status, Message: fmt.Sprintf("job %d: %s", i, ae.Message)}
			}
			return nil, nil, nil, nil, err
		}
		fp, err := hilight.Fingerprint(c, g, opts...)
		if err != nil {
			return nil, nil, nil, nil, badRequest("job %d: %v", i, err)
		}
		fps[i] = fp
		batch[i] = hilight.BatchJob{Circuit: c, Grid: g}
		if i == 0 {
			shared = opts
		}
	}
	return crs, batch, fps, shared, nil
}

// submit validates the batch, registers it, journals the acknowledgment
// (waiting for the fsync — once submit returns, the batch survives any
// crash), and launches its CompileAll run. It returns the batch id and
// the per-job fingerprints.
func (s *jobStore) submit(req *jobsRequest, workers, routeWorkers int, defTimeout, maxTimeout time.Duration, onDone func()) (string, []string, error) {
	batch, fps, shared, parallelism, timeout, err := prepare(req, workers, routeWorkers, defTimeout, maxTimeout)
	if err != nil {
		return "", nil, err
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := &batchJob{id: id, count: len(batch), fps: fps, done: make(chan struct{}), onDone: onDone}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictLocked()
	s.mu.Unlock()

	if s.journal != nil {
		if err := s.journal.appendSubmit(id, req, fps); err != nil {
			// The 202 ack promises durability; if the journal can't deliver
			// it, withdraw the registration and fail the submit instead of
			// lying to the client.
			s.mu.Lock()
			delete(s.jobs, id)
			for i, oid := range s.order {
				if oid == id {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
			return "", nil, &apiError{Status: 500, Message: fmt.Sprintf("job journal unavailable: %v", err)}
		}
	}

	s.submitted.Inc()
	s.active.Add(1)
	s.wg.Add(1)
	go s.run(j, batch, fps, shared, parallelism, timeout, nil)
	return id, fps, nil
}

// run executes the batch and publishes its results. pre, when non-nil,
// carries per-job outcomes a journal replay already settled: those jobs
// are not recompiled. Remaining jobs first consult the schedule cache
// by fingerprint (a previous life may have compiled them without the
// completion record surviving), and only the rest go through CompileAll.
//
// Each job's outcome is journaled the moment it lands (via WithJobDone),
// so a crash mid-batch preserves completed jobs. Outcomes that only
// reflect cancellation — shutdown, timeout, a watchdog abort — are
// deliberately NOT journaled: they are transient, and persisting them
// would turn a restart's resurrection into a permanent failure. A batch
// is sealed with a terminal record only when every job's outcome was
// journaled; an unsealed batch resurrects on the next startup.
func (s *jobStore) run(j *batchJob, batch []hilight.BatchJob, fps []string, shared []hilight.Option, parallelism int, timeout time.Duration, pre []jobResult) {
	defer s.wg.Done()
	out := make([]jobResult, len(batch))
	var unjournaled atomic.Int64
	record := func(i int, transient bool) {
		if s.journal == nil {
			return
		}
		if transient {
			unjournaled.Add(1)
			return
		}
		if err := s.journal.appendJob(j.id, i, &out[i]); err != nil {
			unjournaled.Add(1)
		}
	}

	// Partition the batch: journal-replayed outcomes are final,
	// cache-known fingerprints are served without recompiling, and only
	// the remainder (subIdx) is handed to CompileAll.
	var subIdx []int
	for i := range batch {
		if pre != nil && !pre[i].empty() {
			out[i] = pre[i]
			j.finished.Add(1)
			continue
		}
		if pre != nil && s.cache != nil {
			if sr, ok := s.cache.Get(fps[i]); ok {
				hit := *sr // shallow copy; ScheduleBin bytes are immutable
				hit.Cached = true
				out[i] = jobResult{Result: &hit}
				j.finished.Add(1)
				record(i, false)
				continue
			}
		}
		subIdx = append(subIdx, i)
	}

	if len(subIdx) > 0 {
		sub := make([]hilight.BatchJob, len(subIdx))
		for k, i := range subIdx {
			sub[k] = batch[i]
		}
		wctx, progress, stopWd := s.watchdog.guard(s.ctx, j.id)
		opts := append([]hilight.Option{}, shared...)
		opts = append(opts,
			hilight.WithContext(wctx),
			hilight.WithTimeout(timeout),
			hilight.WithMetrics(s.metrics),
			hilight.WithObserver(func(cs hilight.CycleStats) {
				progress()
				routeCycleHook(cs)
			}),
			hilight.WithEvents(func(e hilight.CompileEvent) {
				if e.Kind == hilight.EventJobFinish || e.Kind == hilight.EventJobPanic {
					j.finished.Add(1)
				}
				if s.events != nil {
					s.events.OnEvent(e)
				}
			}),
			hilight.WithJobDone(func(k int, br hilight.BatchResult) {
				// subIdx entries are disjoint, so concurrent callbacks write
				// disjoint out slots; CompileAll's return is the fence that
				// publishes them to this goroutine.
				i := subIdx[k]
				switch {
				case br.Err != nil:
					out[i] = jobResult{Error: br.Err.Error()}
				default:
					sr, err := newStoredResult(fps[i], br.Result)
					if err != nil {
						out[i] = jobResult{Error: err.Error()}
					} else {
						out[i] = jobResult{Result: sr}
					}
				}
				record(i, errors.Is(br.Err, hilight.ErrCanceled))
			}),
		)
		hilight.CompileAll(sub, parallelism, opts...)
		stopWd()
		if stalled(wctx) {
			s.watchdog.aborted.Inc()
		}
	}

	if s.journal != nil && unjournaled.Load() == 0 {
		// Seal the batch. appendDone waits for the fsync, so every
		// fire-and-forget completion queued above is durable before the
		// terminal record that vouches for them. A failed seal leaves the
		// batch resurrectable — safe, just not final.
		_ = s.journal.appendDone(j.id)
	}

	j.mu.Lock()
	j.results = out
	j.mu.Unlock()
	close(j.done)
	s.completed.Inc()
	s.active.Add(-1)
	if j.onDone != nil {
		j.onDone()
	}
}

// restore rebuilds the store from replayed journal batches, in their
// original submission order. Sealed batches are reinstalled verbatim —
// a poll for them returns byte-for-byte what it would have before the
// crash. Unsealed batches are resurrected: their journaled outcomes are
// kept and only the incomplete jobs re-run, under the fingerprints the
// original ack promised. Called from New before the server serves.
func (s *jobStore) restore(batches []*replayBatch, workers, routeWorkers int, defTimeout, maxTimeout time.Duration) {
	replayedB := s.metrics.Counter("journal/replayed-batches")
	resurrectedB := s.metrics.Counter("journal/resurrected-batches")
	replayedJ := s.metrics.Counter("journal/replayed-jobs")
	rerunJ := s.metrics.Counter("journal/rerun-jobs")
	for _, rb := range batches {
		j := &batchJob{id: rb.id, count: len(rb.fps), fps: rb.fps, done: make(chan struct{})}
		s.jobs[rb.id] = j
		s.order = append(s.order, rb.id)
		replayedB.Inc()
		replayedJ.Add(int64(rb.have))

		if rb.done {
			j.results = rb.results
			j.finished.Store(int64(len(rb.fps)))
			close(j.done)
			continue
		}

		resurrectedB.Inc()
		rerunJ.Add(int64(len(rb.fps) - rb.have))
		req := rb.req // copy: prepare may inject the route-worker default
		batch, _, shared, parallelism, timeout, err := prepare(&req, workers, routeWorkers, defTimeout, maxTimeout)
		if err != nil || len(batch) != len(rb.fps) {
			// The journaled request no longer prepares into the batch the
			// ack described (version skew, a renamed benchmark). Fail the
			// incomplete jobs explicitly rather than guess at intent; the
			// journaled completions are still served.
			msg := fmt.Sprintf("journaled batch has %d jobs, request resolves to %d", len(rb.fps), len(batch))
			if err != nil {
				msg = err.Error()
			}
			for i := range rb.results {
				if rb.results[i].empty() {
					rb.results[i] = jobResult{Error: fmt.Sprintf("resurrection failed: %s", msg)}
				}
			}
			j.results = rb.results
			j.finished.Store(int64(len(rb.fps)))
			close(j.done)
			continue
		}

		// Re-run under the journaled fingerprints, not freshly computed
		// ones: the ack already promised these ids to the client, and the
		// compile options they digest are identical.
		s.submitted.Inc()
		s.active.Add(1)
		s.wg.Add(1)
		go s.run(j, batch, rb.fps, shared, parallelism, timeout, rb.results)
	}
}

// status returns the batch's poll view, rendering each stored outcome
// in the negotiated form (binary or the default JSON). JSON transcoding
// of a stored schedule is deterministic, so repeated polls of a sealed
// batch stay byte-identical — the resilience and chaos guarantees ride
// on that.
func (s *jobStore) status(id string, binary bool) (*jobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	st := &jobStatus{ID: j.id, Count: j.count}
	select {
	case <-j.done:
		st.Status = "done"
		st.Finished = j.count
		j.mu.Lock()
		results := j.results
		j.mu.Unlock()
		st.Results = make([]jobResultView, len(results))
		for i := range results {
			if r := results[i].Result; r != nil {
				resp, err := r.response(binary)
				if err != nil {
					st.Results[i] = jobResultView{Error: err.Error()}
					continue
				}
				st.Results[i] = jobResultView{Result: resp}
			} else {
				st.Results[i] = jobResultView{Error: results[i].Error}
			}
		}
	default:
		st.Status = "running"
		st.Finished = int(j.finished.Load())
	}
	return st, true
}

// evictLocked drops the oldest completed batches beyond maxStored.
// Running batches are never evicted — their goroutine still needs the
// entry, and a poller would lose a batch it just submitted. Evictions
// are journaled so a replay drops the same batches.
func (s *jobStore) evictLocked() {
	for len(s.jobs) > s.maxStored {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			select {
			case <-j.done:
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				if s.journal != nil {
					_ = s.journal.appendEvict(id)
				}
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything is still running; allow the overshoot
		}
	}
}

// shutdown drains running batches: it first waits for them to finish
// naturally, and only when ctx expires cancels the remainder (CompileAll
// then drains promptly — undispatched jobs fail ErrCanceled directly)
// and waits for the goroutines to exit. The journal is flushed and
// closed either way.
func (s *jobStore) shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.cancel()
	case <-ctx.Done():
		s.cancel()
		<-done
		err = fmt.Errorf("service: job store drain cut short: %w", ctx.Err())
	}
	if s.journal != nil {
		s.journal.close()
	}
	return err
}

// kill hard-stops the store, emulating a process crash: batches are
// canceled, the journal drops its unsynced tail (exactly what kill -9
// would lose), and the goroutines are reaped so tests can assert leak
// freedom.
func (s *jobStore) kill() {
	s.cancel()
	if s.journal != nil {
		s.journal.kill()
	}
	s.wg.Wait()
}
