package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hilight/internal/obs"
)

// Admission-control outcomes. errQueueFull and errQuotaExceeded map to
// 429 + Retry-After, errDraining to 503 (the server is shutting down
// and readyz already reports it).
var (
	errQueueFull     = errors.New("service: compile queue full")
	errDraining      = errors.New("service: server draining")
	errQuotaExceeded = errors.New("service: tenant quota exceeded")
)

// priorityClass splits admitted traffic into two lanes. Interactive is
// the default and may use the whole queue; batch accepts extra
// backpressure — it only claims a ticket while the controller is under
// half occupancy, so a batch flood can never starve interactive
// requests of queue headroom.
type priorityClass int

const (
	priorityInteractive priorityClass = iota
	priorityBatch
)

// admission is the server's admission controller: a bounded worker pool
// (slots) fronted by a bounded wait queue (tickets). A request first
// claims a ticket — immediately, or it is rejected with errQueueFull —
// then waits on a worker slot, honoring its context. The two-stage
// design keeps the wait set bounded: at most workers+queue requests are
// inside the controller, everyone else gets instant backpressure
// instead of an unbounded goroutine pileup.
//
// Per-tenant quotas layer on top: when quota > 0, each tenant (the
// X-Hilight-Tenant header; empty is a tenant like any other) may hold
// at most quota concurrent admissions, rejected with errQuotaExceeded
// past that — one noisy tenant cannot occupy the whole queue.
//
// States: accepting → draining (terminal). Draining rejects new work
// while already-admitted requests run to completion; in-flight work is
// tracked by the inflight gauge and drained by Server.Shutdown.
type admission struct {
	tickets  chan struct{} // cap = workers + queue depth
	slots    chan struct{} // cap = workers
	draining atomic.Bool

	quota   int // per-tenant concurrent admissions; <=0 disables
	mu      sync.Mutex
	tenants map[string]int

	queued        *obs.Gauge
	inflight      *obs.Gauge
	admitted      *obs.Counter
	rejected      *obs.Counter
	quotaRejected *obs.Counter
}

func newAdmission(workers, queue, quota int, m *obs.Registry) *admission {
	return &admission{
		tickets:       make(chan struct{}, workers+queue),
		slots:         make(chan struct{}, workers),
		quota:         quota,
		tenants:       make(map[string]int),
		queued:        m.Gauge("service/queued"),
		inflight:      m.Gauge("service/inflight"),
		admitted:      m.Counter("service/admitted"),
		rejected:      m.Counter("service/rejected"),
		quotaRejected: m.Counter("service/quota-rejected"),
	}
}

// acquireFor claims a compile slot for tenant, queueing (up to the
// queue bound) when all workers are busy. It returns a release func on
// success, and errQueueFull / errQuotaExceeded / errDraining / the
// context's error otherwise. release must be called exactly once.
func (a *admission) acquireFor(ctx context.Context, tenant string, pri priorityClass) (release func(), err error) {
	if a.draining.Load() {
		a.rejected.Inc()
		return nil, errDraining
	}
	relTenant, err := a.acquireTenant(tenant)
	if err != nil {
		a.rejected.Inc()
		a.quotaRejected.Inc()
		return nil, err
	}
	if pri == priorityBatch && len(a.tickets)*2 >= cap(a.tickets) {
		// Batch work yields once the controller is half full; the
		// remaining headroom is reserved for interactive traffic.
		relTenant()
		a.rejected.Inc()
		return nil, errQueueFull
	}
	select {
	case a.tickets <- struct{}{}:
	default:
		relTenant()
		a.rejected.Inc()
		return nil, errQueueFull
	}
	a.queued.Add(1)
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		<-a.tickets
		relTenant()
		return nil, ctx.Err()
	}
	// Re-check after a possible queue wait so a drain that started while
	// this request was queued still wins.
	if a.draining.Load() {
		<-a.slots
		<-a.tickets
		relTenant()
		a.rejected.Inc()
		return nil, errDraining
	}
	a.admitted.Inc()
	a.inflight.Add(1)
	return func() {
		a.inflight.Add(-1)
		<-a.slots
		<-a.tickets
		relTenant()
	}, nil
}

// acquireTenant claims one unit of tenant's concurrency quota (a no-op
// release when quotas are disabled). Batch submissions use it directly:
// the whole batch counts as one admission for quota purposes, held from
// accept to the batch's last job.
func (a *admission) acquireTenant(tenant string) (release func(), err error) {
	if a.quota <= 0 {
		return func() {}, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tenants[tenant] >= a.quota {
		return nil, fmt.Errorf("%w: tenant %q at %d concurrent admissions", errQuotaExceeded, tenant, a.quota)
	}
	a.tenants[tenant]++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			if a.tenants[tenant]--; a.tenants[tenant] <= 0 {
				delete(a.tenants, tenant)
			}
		})
	}, nil
}

// load reports the controller's current occupancy: requests queued or
// in flight. The Retry-After derivation reads it as the backlog a new
// request would sit behind.
func (a *admission) load() int {
	return int(a.queued.Value() + a.inflight.Value())
}

// drain moves the controller to its terminal state: every subsequent
// acquireFor fails with errDraining. Idempotent.
func (a *admission) drain() { a.draining.Store(true) }
