package cluster

import (
	"context"
	"sync"
)

// unitTask is one async batch unit in flight through the coordinator:
// the request that reproduces the compile on any worker, and the
// callback that settles its slot in the job store.
type unitTask struct {
	fp     string // public fingerprint; the sharding key
	body   []byte // self-contained POST /v1/compile body
	tenant string // X-Hilight-Tenant passthrough
	// ctx is the job store's: canceled when the coordinator is killed or
	// its drain runs out of time, which aborts the unit's worker request.
	ctx context.Context
	// settle records the unit's outcome, exactly once: a worker
	// envelope, or an error (transient when it wraps
	// hilight.ErrCanceled).
	settle func(envelope []byte, err error)
	// attempts counts dispatch failures; the coordinator gives up (and
	// records an error outcome) once every live worker has had a turn.
	attempts int
}

// stealQueue is the coordinator's per-worker dispatch queue with
// receiver-initiated work stealing. Each worker has two FIFO lanes —
// interactive-priority units ahead of batch ones — and an idle worker
// whose lanes are empty steals from the peer with the longest backlog.
// One mutex + condvar covers the whole structure: dispatch decisions
// need a global view for victim selection anyway, and queue operations
// are microseconds next to the compiles they schedule.
type stealQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lanes  map[string]*workerLanes
	paused map[string]bool // down workers: their dispatchers idle here
	closed bool
}

type workerLanes struct {
	hi, lo []*unitTask
}

func newStealQueue(workers []string) *stealQueue {
	q := &stealQueue{
		lanes:  make(map[string]*workerLanes, len(workers)),
		paused: make(map[string]bool),
	}
	for _, w := range workers {
		q.lanes[w] = &workerLanes{}
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues t for worker w (its home at enqueue time). hi selects
// the interactive lane. It reports false, queuing nothing, once the
// queue is closed.
func (q *stealQueue) push(w string, t *unitTask, hi bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	l := q.lanes[w]
	if l == nil {
		l = &workerLanes{}
		q.lanes[w] = l
	}
	if hi {
		l.hi = append(l.hi, t)
	} else {
		l.lo = append(l.lo, t)
	}
	// Broadcast, not Signal: a single wakeup could land on a dispatcher
	// that cannot take this unit (steals need a backlog of two), leaving
	// the one that could still asleep.
	q.cond.Broadcast()
	return true
}

// pop returns the next task for worker w, blocking until one is
// available or the queue closes (nil). stolen reports whether the task
// came from another worker's lanes. Own work is taken in FIFO order,
// high lane first; a steal targets the victim with the longest backlog
// and only victims with at least two queued units — stealing a lone
// unit just moves the imbalance around and forfeits its cache
// affinity for nothing.
func (q *stealQueue) pop(w string) (t *unitTask, stolen bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		if q.paused[w] {
			// The worker is down: its dispatchers idle instead of pulling
			// work they would only fail to place.
			q.cond.Wait()
			continue
		}
		if l := q.lanes[w]; l != nil {
			if len(l.hi) > 0 {
				t, l.hi = l.hi[0], l.hi[1:]
				return t, false
			}
			if len(l.lo) > 0 {
				t, l.lo = l.lo[0], l.lo[1:]
				return t, false
			}
		}
		if t := q.stealLocked(w); t != nil {
			return t, true
		}
		q.cond.Wait()
	}
}

// stealLocked takes one unit from the tail of the longest peer backlog
// (length >= 2). Tail theft leaves the victim its oldest — most likely
// already-warm — work.
func (q *stealQueue) stealLocked(thief string) *unitTask {
	var victim *workerLanes
	best := 0
	for w, l := range q.lanes {
		if w == thief {
			continue
		}
		n := len(l.hi) + len(l.lo)
		if n < 2 && !q.paused[w] {
			// A live victim keeps a lone unit (stealing it only moves the
			// imbalance and forfeits cache affinity); a paused worker's
			// stragglers are always fair game — nobody else will run them.
			continue
		}
		if n > best {
			best, victim = n, l
		}
	}
	if victim == nil {
		return nil
	}
	if n := len(victim.lo); n > 0 {
		t := victim.lo[n-1]
		victim.lo = victim.lo[:n-1]
		return t
	}
	n := len(victim.hi)
	t := victim.hi[n-1]
	victim.hi = victim.hi[:n-1]
	return t
}

// pause marks worker w down: its dispatchers stop pulling work, and
// every unit queued for it is returned for redistribution.
func (q *stealQueue) pause(w string) []*unitTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.paused[w] = true
	l := q.lanes[w]
	if l == nil {
		return nil
	}
	out := append(append([]*unitTask{}, l.hi...), l.lo...)
	l.hi, l.lo = nil, nil
	return out
}

// resume marks worker w up again and wakes its dispatchers.
func (q *stealQueue) resume(w string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.paused, w)
	q.cond.Broadcast()
}

// depth reports the total queued units across all workers.
func (q *stealQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, l := range q.lanes {
		n += len(l.hi) + len(l.lo)
	}
	return n
}

// close wakes every blocked pop with nil and returns the units still
// queued, for the caller to settle. Idempotent: a second close returns
// nothing.
func (q *stealQueue) close() []*unitTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	var left []*unitTask
	for _, l := range q.lanes {
		left = append(append(left, l.hi...), l.lo...)
		l.hi, l.lo = nil, nil
	}
	q.cond.Broadcast()
	return left
}
