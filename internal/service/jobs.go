package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/qasm"
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
	// Finished counts settled jobs, live-updated while the batch runs.
	Finished int `json:"finished"`
	// Results is present once Status is "done", in job order.
	Results []jobResultView `json:"results,omitempty"`
}

// jobResultView is the poll-time rendering of one job's outcome: the
// binary form's stored payload passed through as the base64
// schedule_bin, or an error. The default JSON poll writes the same
// shape with each schedule inline (appendDonePoll).
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
	finished atomic.Int64  // settled jobs, for live polls
	// onDone, when non-nil, runs once when the batch finishes — the
	// submit path parks the tenant-quota release here so a batch counts
	// against its tenant from ack to completion.
	onDone func()

	mu      sync.Mutex
	results []jobResult
}

// settleFunc records job i's outcome. A transient outcome — one that
// only reflects cancellation: shutdown, timeout, a watchdog abort — is
// served but not journaled, so a restart runs the job again.
type settleFunc func(i int, r jobResult, transient bool)

// batchRun runs the jobs of batch id still to run (todo, indices into
// the batch) and returns once it has settled each of them exactly once.
// ctx is the store's, canceled when a drain runs out of time or the
// store is killed.
type batchRun func(ctx context.Context, id string, todo []int, settle settleFunc)

// planFunc validates a batch request and resolves it into the per-job
// fingerprints its ack promises and the function that runs its jobs.
// hdr is the submitting request's header; for a batch a journal replay
// resumes, it holds only the tenant and priority the submit carried.
type planFunc func(req *jobsRequest, hdr http.Header) (fps []string, run batchRun, err error)

// JobStore owns the async batches of POST /v1/jobs: it ids them, runs
// each through its plan's run function on a background goroutine,
// serves status polls, and bounds memory by evicting the oldest
// completed batches beyond maxStored. A single node runs batches
// through CompileAll (Server.planBatch); a cluster coordinator through
// its steal queue (OpenJobStore). Shutdown cancels the store context
// and waits for running batches to drain.
//
// With a journal attached, every acknowledged submission, job
// completion, batch seal and eviction is also persisted; restore
// rebuilds the store from a replayed journal on startup.
type JobStore struct {
	mu        sync.Mutex
	seq       int
	jobs      map[string]*batchJob
	order     []string // insertion order, for eviction
	maxStored int
	plan      planFunc

	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
	metrics *obs.Registry
	// journal, when non-nil, makes acknowledged batches durable.
	journal *journal
	// cache lets resurrected batches serve journal-missed completions
	// whose schedules a previous life already compiled and cached.
	cache *scheduleCache

	submitted *obs.Counter
	completed *obs.Counter
	active    *obs.Gauge
}

func newJobStore(maxStored int, m *obs.Registry) *JobStore {
	ctx, cancel := context.WithCancel(context.Background())
	return &JobStore{
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

// OpenJobStore returns a job store whose batches run on a cluster
// instead of the local compiler: the coordinator's store. Each batch
// resolves into self-contained compile units, exactly as a single node
// expands it (jobsRequest.resolve), and dispatch runs the units listed
// in todo. hdr is the submit's header; for a batch the journal resumes
// it holds only the submit's tenant and priority. dispatch must call
// settle once per listed unit, with the worker's binary envelope or an
// error, and return once all have settled; an error wrapping
// hilight.ErrCanceled is transient. With journalDir set the store
// journals, replays and compacts exactly as New does.
func OpenJobStore(maxStored int, journalDir string, m *obs.Registry,
	dispatch func(ctx context.Context, units []Unit, todo []int, hdr http.Header, settle func(i int, envelope []byte, err error)),
) (*JobStore, error) {
	s := newJobStore(maxStored, m)
	s.plan = func(req *jobsRequest, hdr http.Header) ([]string, batchRun, error) {
		crs, _, fps, _, err := req.resolve()
		if err != nil {
			return nil, nil, err
		}
		units := make([]Unit, len(crs))
		for i := range crs {
			body, err := json.Marshal(&crs[i])
			if err != nil {
				return nil, nil, fmt.Errorf("service: marshal unit %d: %w", i, err)
			}
			units[i] = Unit{Fingerprint: fps[i], Body: body}
		}
		return fps, func(ctx context.Context, _ string, todo []int, settle settleFunc) {
			dispatch(ctx, units, todo, hdr, func(i int, envelope []byte, err error) {
				var sr *storedResult
				if err == nil {
					sr, err = decodeStored(envelope)
				}
				if err != nil {
					settle(i, jobResult{Error: err.Error()}, errors.Is(err, hilight.ErrCanceled))
					return
				}
				// Batch results never report Cached on a single node: the flag
				// describes the sync endpoint's cache, not worker placement.
				sr.Cached = false
				settle(i, jobResult{Result: sr}, false)
			})
		}, nil
	}
	if journalDir != "" {
		batches, _, err := s.attachJournal(journalDir)
		if err != nil {
			return nil, err
		}
		s.restore(batches)
	}
	return s, nil
}

// attachJournal opens the journal under dir — replaying, pruning and
// compacting it — and returns the replayed batches and session records
// for the caller to restore.
func (s *JobStore) attachJournal(dir string) ([]*replayBatch, []*journalRecord, error) {
	jr, batches, sessions, maxSeq, err := openJournal(dir, s.maxStored, s.metrics)
	if err != nil {
		return nil, nil, err
	}
	s.journal = jr
	// Never reuse an id a previous life acknowledged, even for batches
	// the replay evicted.
	s.seq = max(s.seq, maxSeq)
	return batches, sessions, nil
}

// planBatch is the single node's plan: it resolves the request, sizes
// the batch's pool and deadline, and runs the jobs still to run through
// CompileAll. The plan is shared by the submit path and journal
// resurrection, so a journaled request re-prepares through exactly the
// code that validated it at ack time. It does not modify req.
func (s *Server) planBatch(req *jobsRequest, _ http.Header) ([]string, batchRun, error) {
	_, batch, fps, shared, err := req.resolve()
	if err != nil {
		return nil, nil, err
	}
	parallelism := req.Parallelism
	if parallelism <= 0 || parallelism > s.cfg.Workers {
		parallelism = s.cfg.Workers
	}
	// One deadline for the whole batch: the per-compile default scaled by
	// the batch's depth per worker, unless the request asks for less.
	waves := time.Duration((len(batch) + parallelism - 1) / parallelism)
	timeout := clampTimeout(req.TimeoutMS, waves*s.cfg.DefaultTimeout, waves*s.cfg.MaxTimeout)
	return fps, func(ctx context.Context, id string, todo []int, settle settleFunc) {
		sub := make([]hilight.BatchJob, len(todo))
		for k, i := range todo {
			sub[k] = batch[i]
		}
		wctx, opts, stopWd := s.guard(ctx, id, timeout, shared)
		opts = append(opts,
			hilight.WithJobDone(func(k int, br hilight.BatchResult) {
				i := todo[k]
				if br.Err != nil {
					settle(i, jobResult{Error: br.Err.Error()}, errors.Is(br.Err, hilight.ErrCanceled))
				} else if sr, err := newStoredResult(fps[i], br.Result); err != nil {
					settle(i, jobResult{Error: err.Error()}, false)
				} else {
					settle(i, jobResult{Result: sr}, false)
				}
			}),
		)
		if s.cfg.Events != nil {
			opts = append(opts, hilight.WithEvents(s.cfg.Events.OnEvent))
		}
		hilight.CompileAll(sub, parallelism, opts...)
		stopWd()
		if stalled(wctx) {
			s.watchdog.aborted.Inc()
		}
	}, nil
}

// maxBatchTiles bounds the grid tiles of one batch, whose grids stay
// resolved until it has run: about 40 MiB of grids, two of the largest a
// request may name.
const maxBatchTiles = 1 << 23

// resolve validates a batch request and resolves every entry up front,
// so a malformed entry fails the submit synchronously with a 400
// instead of surfacing later in a poll. It returns, per entry, the
// compileRequest carrying the batch-level options, the batch job it
// builds and its fingerprint, plus the option list shared by every job.
// The fingerprint therefore describes exactly the compile CompileAll
// will run. Both plans expand batches here, so a coordinator's unit
// fingerprints equal the ones a single-node ack returns. A batch whose
// entries together exceed the parser's gate bound or maxBatchTiles fails
// at the entry that passes it, before that entry is fingerprinted.
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
	gates, tiles := 0, 0
	for i, e := range req.Jobs {
		crs[i] = compileRequest{
			QASM: e.QASM, Benchmark: e.Benchmark, Grid: e.Grid,
			Method: req.Method, Seed: req.Seed, QCO: req.QCO,
			Compact: req.Compact, Defects: req.Defects, Fallback: req.Fallback,
		}
		c, g, opts, err := crs[i].build()
		if err != nil {
			if ae, ok := err.(*apiError); ok {
				return nil, nil, nil, nil, &apiError{Status: ae.Status, Message: fmt.Sprintf("job %d: %s", i, ae.Message)}
			}
			return nil, nil, nil, nil, err
		}
		if gates += len(c.Gates); gates > qasm.MaxGates {
			return nil, nil, nil, nil, badRequest("job %d: jobs batch has more than %d gates", i, qasm.MaxGates)
		}
		if tiles += g.Tiles(); tiles > maxBatchTiles {
			return nil, nil, nil, nil, badRequest("job %d: jobs batch has more than %d grid tiles", i, maxBatchTiles)
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

// Submit validates body as a POST /v1/jobs request and acknowledges
// the batch as submit does, for a server that buffers request bodies.
// hdr is the submitting request's header. It returns the batch id and
// the per-job fingerprints; errors map to a status through HTTPStatus.
func (s *JobStore) Submit(body []byte, hdr http.Header) (string, []string, error) {
	var req jobsRequest
	if err := decodeStrict(body, &req); err != nil {
		return "", nil, err
	}
	return s.submit(&req, hdr, nil)
}

// submit validates the batch, registers it, journals the acknowledgment
// (waiting for the fsync — once submit returns, the batch survives any
// crash), and starts its run. It returns the batch id and the per-job
// fingerprints.
func (s *JobStore) submit(req *jobsRequest, hdr http.Header, onDone func()) (string, []string, error) {
	fps, run, err := s.plan(req, hdr)
	if err != nil {
		return "", nil, err
	}

	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := &batchJob{id: id, count: len(fps), fps: fps, done: make(chan struct{}), onDone: onDone}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictLocked()
	s.mu.Unlock()

	if s.journal != nil {
		if err := s.journal.appendSubmit(id, req, fps, hdr); err != nil {
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
	s.launch(j, run, nil)
	return id, fps, nil
}

// launch starts batch j's run goroutine.
func (s *JobStore) launch(j *batchJob, run batchRun, pre []jobResult) {
	s.submitted.Inc()
	s.active.Add(1)
	s.wg.Add(1)
	go s.run(j, run, pre)
}

// run executes the batch and publishes its results. pre, when non-nil,
// carries per-job outcomes a journal replay already settled: those jobs
// are not run again. Remaining jobs first consult the schedule cache
// by fingerprint (a previous life may have compiled them without the
// completion record surviving), and only the rest go to the run
// function.
//
// Each job's outcome is journaled the moment it settles, so a crash
// mid-batch preserves completed jobs. Transient outcomes are
// deliberately NOT journaled: persisting them would turn a restart's
// resurrection into a permanent failure. A batch is sealed with a
// terminal record only when every job's outcome was journaled; an
// unsealed batch resurrects on the next startup.
func (s *JobStore) run(j *batchJob, run batchRun, pre []jobResult) {
	defer s.wg.Done()
	out := make([]jobResult, j.count)
	var unjournaled atomic.Int64
	// Jobs settle at most once each, so concurrent settles write disjoint
	// out slots; run's return is the fence that publishes them here.
	settle := func(i int, r jobResult, transient bool) {
		out[i] = r
		j.finished.Add(1)
		if s.journal == nil {
			return
		}
		if transient || s.journal.appendJob(j.id, i, &out[i]) != nil {
			unjournaled.Add(1)
		}
	}

	var todo []int
	for i := range out {
		if pre != nil && !pre[i].empty() {
			out[i] = pre[i]
			j.finished.Add(1)
			continue
		}
		if pre != nil && s.cache != nil {
			// The stored entry as it is: a batch result says cached false
			// whoever compiled it.
			if sr, ok := s.cache.Get(j.fps[i]); ok {
				settle(i, jobResult{Result: sr}, false)
				continue
			}
		}
		todo = append(todo, i)
	}
	if len(todo) > 0 {
		run(s.ctx, j.id, todo, settle)
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
// original ack promised. Called before the store serves.
func (s *JobStore) restore(batches []*replayBatch) {
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
		fps, run, err := s.plan(&rb.req, rb.header())
		if err == nil && !slices.Equal(fps, rb.fps) {
			err = errors.New("request no longer resolves to the acknowledged fingerprints")
		}
		if err != nil {
			// The journaled request no longer resolves to the batch the ack
			// described (version skew, a renamed benchmark). Fail the
			// incomplete jobs explicitly rather than guess at intent; the
			// journaled completions are still served.
			for i := range rb.results {
				if rb.results[i].empty() {
					rb.results[i] = jobResult{Error: fmt.Sprintf("resurrection failed: %v", err)}
				}
			}
			j.results = rb.results
			j.finished.Store(int64(len(rb.fps)))
			close(j.done)
			continue
		}
		s.launch(j, run, rb.results)
	}
}

// WriteStatus answers GET /v1/jobs/{id}: the batch's poll body in the
// form r's Accept negotiates, or a 404. It reports whether the batch
// was found. A done batch's default JSON poll renders each stored
// result through appendResponseJSON (see appendDonePoll); the binary
// form carries each schedule as its schedule_bin payload. Rendering a
// stored schedule is deterministic, so repeated polls of a sealed batch
// stay byte-identical — the resilience and chaos guarantees ride on
// that.
func (s *JobStore) WriteStatus(w http.ResponseWriter, r *http.Request) bool {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		WriteJSON(w, http.StatusNotFound, errorBody(fmt.Sprintf("unknown job %q", id)))
		return false
	}
	st := &jobStatus{ID: j.id, Status: "running", Count: j.count}
	select {
	case <-j.done:
	default:
		st.Finished = int(j.finished.Load())
		WriteJSON(w, http.StatusOK, st)
		return true
	}
	st.Status, st.Finished = "done", j.count
	j.mu.Lock()
	results := j.results
	j.mu.Unlock()
	if !AcceptsBinary(r) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(appendDonePoll(st, results))
		return true
	}
	st.Results = make([]jobResultView, len(results))
	for i, res := range results {
		st.Results[i] = jobResultView{Error: res.Error}
		if res.Result != nil {
			st.Results[i] = jobResultView{Result: res.Result.envelope()}
		}
	}
	WriteJSON(w, http.StatusOK, st)
	return true
}

// appendDonePoll renders a done batch's default JSON poll body, the
// bytes WriteJSON writes for st with each result's schedule inline: the
// frame and each error through encoding/json, each stored result
// through appendResponseJSON at its depth. A result whose stored
// schedule cannot be rendered is served as its error.
func appendDonePoll(st *jobStatus, results []jobResult) []byte {
	// jobStatus and jobResultView hold only strings and ints, which
	// cannot fail to marshal.
	frame, _ := json.MarshalIndent(st, "", "  ")
	if len(results) == 0 {
		return append(frame, '\n') // results is omitempty
	}
	// Each entry opens two indents deep, its result or error member sits
	// three deep, and so the result's own members sit four deep.
	b := appendMember(nil, frame, "", "results")
	b = append(b, '[')
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		if res.Result != nil {
			var err error
			opened := append(b, "{\n      \"result\": "...)
			if opened, err = appendResponseJSON(opened, res.Result, "      "); err == nil {
				b = append(opened, "\n    }"...)
				continue
			}
			res = jobResult{Error: err.Error()}
		}
		view, _ := json.MarshalIndent(jobResultView{Error: res.Error}, "    ", "  ")
		b = append(b, view...)
	}
	b = append(b, "\n  ]"...)
	return append(closeObject(b, ""), '\n')
}

// evictLocked drops the oldest completed batches beyond maxStored.
// Running batches are never evicted — their goroutine still needs the
// entry, and a poller would lose a batch it just submitted. Evictions
// are journaled so a replay drops the same batches.
func (s *JobStore) evictLocked() {
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

// Shutdown drains running batches: it first waits for them to finish
// naturally, and only when ctx expires cancels the remainder (CompileAll
// then drains promptly — undispatched jobs fail ErrCanceled directly)
// and waits for the goroutines to exit. The journal is flushed and
// closed either way.
func (s *JobStore) Shutdown(ctx context.Context) error {
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

// Kill hard-stops the store, emulating a process crash: batches are
// canceled, the journal drops its unsynced tail (exactly what kill -9
// would lose), and the goroutines are reaped so tests can assert leak
// freedom.
func (s *JobStore) Kill() {
	s.cancel()
	if s.journal != nil {
		s.journal.kill()
	}
	s.wg.Wait()
}
