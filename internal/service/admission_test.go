package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"hilight/internal/obs"
)

func TestAdmissionPoolAndQueueBounds(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(2, 1, 0, m) // 2 workers, 1 queued

	rel1, err := a.acquireFor(context.Background(), "", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.acquireFor(context.Background(), "", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}

	// Third request queues; run it in a goroutine since it blocks. Wait
	// for its ticket claim to land (the queued gauge) before probing.
	got3 := make(chan error, 1)
	var rel3 func()
	go func() {
		r, err := a.acquireFor(context.Background(), "", priorityInteractive)
		rel3 = r
		got3 <- err
	}()
	waitGauge(t, m, "service/queued", 1)

	// Workers and queue are now both full: a fourth acquire bounces
	// immediately with errQueueFull.
	if _, err := a.acquireFor(context.Background(), "", priorityInteractive); !errors.Is(err, errQueueFull) {
		t.Fatalf("fourth acquire returned %v, want errQueueFull", err)
	}

	rel1() // frees a worker slot; the queued request proceeds
	if err := <-got3; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	rel2()
	rel3()

	snap := m.Snapshot()
	if v, _ := snap.Counter("service/admitted"); v != 3 {
		t.Errorf("admitted = %d, want 3", v)
	}
	if v, _ := snap.Counter("service/rejected"); v < 1 {
		t.Errorf("rejected = %d, want >= 1", v)
	}
	if v, _ := snap.Gauge("service/inflight"); v != 0 {
		t.Errorf("inflight = %d after all releases, want 0", v)
	}
	if v, _ := snap.Gauge("service/queued"); v != 0 {
		t.Errorf("queued = %d after all releases, want 0", v)
	}
}

// waitGauge polls the registry until the named gauge reaches want.
func waitGauge(t *testing.T, m *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := m.Snapshot().Gauge(name); v == want {
			return
		}
		if time.Now().After(deadline) {
			v, _ := m.Snapshot().Gauge(name)
			t.Fatalf("gauge %s = %d, want %d (timed out)", name, v, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionCanceledWhileQueued(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(1, 4, 0, m)
	rel, err := a.acquireFor(context.Background(), "", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.acquireFor(ctx, "", priorityInteractive)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire returned %v, want context.Canceled", err)
	}
	rel()
	// The canceled waiter must have returned its ticket: the queue is
	// empty again and a fresh acquire succeeds immediately.
	rel2, err := a.acquireFor(context.Background(), "", priorityInteractive)
	if err != nil {
		t.Fatalf("acquire after canceled waiter: %v", err)
	}
	rel2()
}

func TestAdmissionTenantQuota(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(4, 4, 2, m) // quota: 2 concurrent admissions per tenant

	relA1, err := a.acquireFor(context.Background(), "acme", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	relA2, err := a.acquireFor(context.Background(), "acme", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquireFor(context.Background(), "acme", priorityInteractive); !errors.Is(err, errQuotaExceeded) {
		t.Fatalf("third acme acquire returned %v, want errQuotaExceeded", err)
	}
	// A different tenant is unaffected by acme's saturation.
	relB, err := a.acquireFor(context.Background(), "globex", priorityInteractive)
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	relA1()
	// Releasing one admission reopens the quota.
	relA3, err := a.acquireFor(context.Background(), "acme", priorityInteractive)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	relA2()
	relA3()
	relB()
	if v, _ := m.Snapshot().Counter("service/quota-rejected"); v != 1 {
		t.Errorf("quota-rejected = %d, want 1", v)
	}
	a.mu.Lock()
	if len(a.tenants) != 0 {
		t.Errorf("tenant map not empty after all releases: %v", a.tenants)
	}
	a.mu.Unlock()
}

func TestAdmissionTenantReleaseIdempotent(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(1, 1, 1, m)
	rel, err := a.acquireTenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // double release must not underflow the count
	rel2, err := a.acquireTenant("acme")
	if err != nil {
		t.Fatalf("acquire after double release: %v", err)
	}
	rel2()
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.tenants["acme"]; n != 0 {
		t.Errorf("acme count = %d after releases, want 0", n)
	}
}

func TestAdmissionBatchPriorityYieldsAtHalfCap(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(2, 2, 0, m) // tickets cap 4; half cap = 2

	// An empty controller admits batch work.
	rel1, err := a.acquireFor(context.Background(), "", priorityBatch)
	if err != nil {
		t.Fatalf("batch acquire on idle controller: %v", err)
	}
	rel2, err := a.acquireFor(context.Background(), "", priorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	// Two of four tickets held: batch traffic now bounces while
	// interactive still has the remaining headroom.
	if _, err := a.acquireFor(context.Background(), "", priorityBatch); !errors.Is(err, errQueueFull) {
		t.Fatalf("batch acquire at half cap returned %v, want errQueueFull", err)
	}
	got3 := make(chan error, 1)
	var rel3 func()
	go func() {
		r, err := a.acquireFor(context.Background(), "", priorityInteractive)
		rel3 = r
		got3 <- err
	}()
	waitGauge(t, m, "service/queued", 1)
	rel1()
	if err := <-got3; err != nil {
		t.Fatalf("interactive acquire past half cap: %v", err)
	}
	rel2()
	rel3()
}

func TestAdmissionDrain(t *testing.T) {
	m := obs.NewRegistry()
	a := newAdmission(1, 1, 0, m)
	a.drain()
	if _, err := a.acquireFor(context.Background(), "", priorityInteractive); !errors.Is(err, errDraining) {
		t.Fatalf("acquire on draining controller returned %v", err)
	}
	a.drain() // idempotent
}
