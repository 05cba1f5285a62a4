package hilight

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hilight/internal/obs"
)

// BatchJob is one circuit/grid pair for CompileAll. A nil Grid selects
// the rectangular M×(M−1) grid for the circuit's width.
type BatchJob struct {
	Circuit *Circuit
	Grid    *Grid
}

// BatchResult pairs a job's result with its error. Exactly one of the
// two is set: a successful job (including one degraded to a WithFallback
// method — check Result.Degraded) carries a Result and a nil Err, while
// any failure carries an Err and a nil Result. runBatchJob enforces the
// invariant, so callers may branch on `Err != nil` alone.
type BatchResult struct {
	Result *Result
	Err    error
}

// CompileAll maps every job concurrently on a bounded worker pool and
// returns results in job order. parallelism ≤ 0 uses GOMAXPROCS. Every
// job runs the same pass pipeline Compile does — each builds its own
// Pipeline with a fresh seeded rng, so jobs never share mutable router
// internals; identical seeds give identical per-job results (including
// per-job Result.Trace) regardless of pool size or scheduling.
//
// A job that panics is isolated: the panic is recovered into that job's
// Err while every other job runs to completion. When a WithContext
// context is canceled mid-batch, the dispatcher stops handing out work
// and fails every not-yet-dispatched job with ErrCanceled directly —
// a canceled 10k-job batch drains in the time of the in-flight jobs, not
// by round-tripping every index through a worker. Jobs already picked up
// fail fast too (Compile checks the context before doing any work).
//
// With WithMetrics, the batch feeds the registry's batch/... family:
// job counters (jobs, jobs-succeeded, jobs-failed, jobs-panicked,
// jobs-canceled, jobs-degraded), queue-wait-seconds and job-seconds
// histograms, and an inflight gauge. With WithEvents, every job emits
// lifecycle events (see CompileEvent).
func CompileAll(jobs []BatchJob, parallelism int, opts ...Option) []BatchResult {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	// Resolve the batch-level options (context, metrics, events) from the
	// same option list each job's Compile will consume.
	o := newOptions(opts)
	bm := newBatchMetrics(o.metrics)
	bm.jobs(int64(len(jobs)))

	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runJob(i, jobs[i], opts, o.events, bm, time.Since(start))
				if o.jobDone != nil {
					o.jobDone(i, results[i])
				}
			}
		}()
	}

	// Dispatch until the context dies; a canceled batch short-circuits
	// here instead of round-tripping every remaining index through a
	// worker. The Err() check at the loop top bounds how many sends can
	// still win the select race against Done.
	dispatched := len(jobs)
dispatch:
	for i := range jobs {
		if o.ctx == nil {
			work <- i
			continue
		}
		if o.ctx.Err() != nil {
			dispatched = i
			break
		}
		select {
		case work <- i:
		case <-o.ctx.Done():
			dispatched = i
			break dispatch
		}
	}
	close(work)
	wg.Wait()

	// Fail the jobs the dispatcher never handed out. They report a
	// terminal finish event with zero Duration and no preceding start.
	if dispatched < len(jobs) {
		err := fmt.Errorf("hilight: %w (batch canceled before job was dispatched: %v)",
			ErrCanceled, o.ctx.Err())
		for i := dispatched; i < len(jobs); i++ {
			results[i] = BatchResult{Err: err}
			bm.canceled()
			if o.events != nil {
				o.events.OnEvent(obs.Event{Kind: obs.JobFinish, Job: i, Err: err})
			}
			if o.jobDone != nil {
				o.jobDone(i, results[i])
			}
		}
	}
	return results
}

// runJob runs one picked-up job with its bookkeeping: queue-wait and
// wall-time metrics, lifecycle events, and the job counters.
func runJob(i int, job BatchJob, opts []Option, ev obs.EventObserver, bm *batchMetrics, wait time.Duration) BatchResult {
	bm.pickedUp(wait)
	if ev != nil {
		ev.OnEvent(obs.Event{Kind: obs.JobStart, Job: i, QueueWait: wait})
	}
	t0 := time.Now()
	br, panicked := runBatchJob(i, job, opts)
	d := time.Since(t0)
	bm.finished(br, panicked, d)
	if ev != nil {
		if br.Result != nil && br.Result.Degraded {
			ev.OnEvent(obs.Event{
				Kind: obs.JobDegraded, Job: i, Method: br.Result.FallbackMethod,
				QueueWait: wait, Duration: d,
			})
		}
		kind := obs.JobFinish
		if panicked {
			kind = obs.JobPanic
		}
		ev.OnEvent(obs.Event{Kind: kind, Job: i, Err: br.Err, QueueWait: wait, Duration: d})
	}
	return br
}

// runBatchJob compiles one job, converting a panic anywhere below (a
// poisoned circuit, a placement bug) into that job's error instead of
// killing the whole process. It upholds the BatchResult invariant:
// exactly one of Result and Err is set, so an error never carries a
// partial Result and a degraded fallback success never carries an Err.
func runBatchJob(i int, job BatchJob, opts []Option) (br BatchResult, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			br = BatchResult{Err: fmt.Errorf("hilight: job %d panicked: %v\n%s", i, rec, debug.Stack())}
			panicked = true
		}
	}()
	if job.Circuit == nil {
		return BatchResult{Err: fmt.Errorf("hilight: job %d has no circuit", i)}, false
	}
	g := job.Grid
	if g == nil {
		g = RectGrid(job.Circuit.NumQubits)
	}
	res, err := Compile(job.Circuit, g, opts...)
	if err != nil {
		// Drop any partial result: the documented invariant is that an
		// errored job carries no Result.
		return BatchResult{Err: err}, false
	}
	return BatchResult{Result: res}, false
}

// batchMetrics bundles the batch/... handles so the worker loop meters
// jobs through cached pointers (atomic increments, no lookups). A nil
// receiver (no registry) turns every method into a no-op.
type batchMetrics struct {
	submitted, succeeded, failed, panicked, cancel, degraded *obs.Counter
	queueWait, jobSeconds                                    *obs.Histogram
	inflight                                                 *obs.Gauge
}

func newBatchMetrics(m *obs.Registry) *batchMetrics {
	if m == nil {
		return nil
	}
	return &batchMetrics{
		submitted:  m.Counter("batch/jobs"),
		succeeded:  m.Counter("batch/jobs-succeeded"),
		failed:     m.Counter("batch/jobs-failed"),
		panicked:   m.Counter("batch/jobs-panicked"),
		cancel:     m.Counter("batch/jobs-canceled"),
		degraded:   m.Counter("batch/jobs-degraded"),
		queueWait:  m.Histogram("batch/queue-wait-seconds", obs.DurationBuckets),
		jobSeconds: m.Histogram("batch/job-seconds", obs.DurationBuckets),
		inflight:   m.Gauge("batch/inflight"),
	}
}

func (b *batchMetrics) jobs(n int64) {
	if b != nil {
		b.submitted.Add(n)
	}
}

func (b *batchMetrics) pickedUp(wait time.Duration) {
	if b != nil {
		b.queueWait.ObserveDuration(wait)
		b.inflight.Add(1)
	}
}

func (b *batchMetrics) canceled() {
	if b != nil {
		b.cancel.Inc()
	}
}

// finished classifies a terminal job into exactly one of the disjoint
// outcome counters: jobs = succeeded + failed + panicked + canceled.
func (b *batchMetrics) finished(br BatchResult, panicked bool, d time.Duration) {
	if b == nil {
		return
	}
	b.jobSeconds.ObserveDuration(d)
	b.inflight.Add(-1)
	switch {
	case panicked:
		b.panicked.Inc()
	case errors.Is(br.Err, ErrCanceled):
		b.cancel.Inc()
	case br.Err != nil:
		b.failed.Inc()
	default:
		b.succeeded.Inc()
		if br.Result.Degraded {
			b.degraded.Inc()
		}
	}
}
