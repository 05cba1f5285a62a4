package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"hilight/internal/obs"
)

// The job journal is hilightd's crash-safety layer: an append-only JSONL
// write-ahead log that records every acknowledged async batch (the full
// request payload plus per-job fingerprints), every per-job completion
// (the wire-form result), each batch's terminal state, and evictions.
// Appends are group-committed: concurrent writers hand lines to a single
// syncer goroutine that writes them in arrival order and fsyncs once per
// batch, so a submit ack waits for exactly one (shared) fsync and a
// kill -9 can only lose records that were never acknowledged.
//
// On startup the journal is replayed: finished batches are reinstalled
// verbatim (their results byte-stable across replays), unfinished
// batches are resurrected with only their incomplete jobs re-run, and
// the log is compacted to the retained records via an atomic
// write-tmp-then-rename before the new process appends anything.
//
// Record kinds, one JSON object per line:
//
//	{"kind":"submit","id":"job-000001","req":{...},"fps":["..."],"tenant":"t","priority":"batch"}
//	{"kind":"job","id":"job-000001","job":2,"res":{...}}
//	{"kind":"done","id":"job-000001"}
//	{"kind":"evict","id":"job-000001"}
//	{"kind":"session","id":"<child fp>","fps":["<parent fp>"],"res":{...}}
//
// A submit record keeps the submit's X-Hilight-Tenant and
// X-Hilight-Priority headers when it carried them, so a batch the
// replay resumes runs under the tenant and priority it was acknowledged
// under.
//
// A session record captures compile lineage: the stored result of a
// recompile (If-Fingerprint-Match or a defect-feed refresh) keyed by its
// child fingerprint, with the parent fingerprint alongside. Replay seeds
// the schedule cache with these results, so a restarted daemon keeps
// serving warm starts against the same parents its previous life built.
const (
	recSubmit  = "submit"
	recJob     = "job"
	recDone    = "done"
	recEvict   = "evict"
	recSession = "session"
)

// journalFile is the single segment file inside the journal directory.
const journalFile = "journal.jsonl"

// errJournalDown reports an append against a killed or closed journal.
var errJournalDown = errors.New("service: journal is down")

// journalRecord is the wire form of one journal line.
type journalRecord struct {
	Kind string          `json:"kind"`
	ID   string          `json:"id"`
	Req  json.RawMessage `json:"req,omitempty"`
	Fps  []string        `json:"fps,omitempty"`
	Job  int             `json:"job,omitempty"`
	Res  json.RawMessage `json:"res,omitempty"`
	// Tenant and Priority are a submit's X-Hilight-Tenant and
	// X-Hilight-Priority headers.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
}

// appendWait is one enqueued line; done (when non-nil) receives the
// fsync outcome of the group commit that covered the line.
type appendWait struct {
	line []byte
	done chan error
}

// journal owns the append side of the WAL. Appends are funneled through
// ch to the syncer goroutine; quit tears the journal down (killed
// selects drop-everything crash semantics, otherwise remaining queued
// lines are flushed).
type journal struct {
	path string
	f    *os.File

	ch   chan appendWait
	quit chan struct{}
	down sync.Once
	wg   sync.WaitGroup

	// killed flips the teardown mode to crash emulation: queued and
	// future lines are dropped instead of flushed. Written before quit
	// closes, read after — the channel close is the memory fence.
	killed bool

	appends   *obs.Counter
	appendErr *obs.Counter
	fsyncs    *obs.Counter
	bytes     *obs.Counter
}

// replayBatch is one batch reconstructed from the journal.
type replayBatch struct {
	id      string
	seq     int
	reqRaw  json.RawMessage
	req     jobsRequest
	fps     []string
	done    bool
	results []jobResult // len == len(fps); zero entry ⇒ no completion record
	have    int         // completed entries in results

	// tenant and priority are the submit's headers, "" when absent.
	tenant, priority string
}

// header returns the submit headers the batch's plan sees when the
// replay resumes it: nil when the submit carried neither.
func (rb *replayBatch) header() http.Header {
	if rb.tenant == "" && rb.priority == "" {
		return nil
	}
	return http.Header{"X-Hilight-Tenant": {rb.tenant}, "X-Hilight-Priority": {rb.priority}}
}

// openJournal replays, prunes and compacts the journal under dir, then
// opens it for appending. It returns the retained batches in submission
// order (finished batches beyond maxStored are dropped, mirroring the
// job store's eviction policy), the retained session records (bounded by
// the same maxStored, newest kept), and the highest batch sequence
// number ever used, so new ids never collide with replayed ones.
func openJournal(dir string, maxStored int, m *obs.Registry) (*journal, []*replayBatch, []*journalRecord, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	batches, sessions, maxSeq, err := readJournal(path, m)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	batches = pruneReplay(batches, maxStored, m)
	sessions = pruneSessions(sessions, maxStored, m)
	if err := compactJournal(path, batches, sessions); err != nil {
		return nil, nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	j := &journal{
		path:      path,
		f:         f,
		ch:        make(chan appendWait, 256),
		quit:      make(chan struct{}),
		appends:   m.Counter("journal/appends"),
		appendErr: m.Counter("journal/append-errors"),
		fsyncs:    m.Counter("journal/fsyncs"),
		bytes:     m.Counter("journal/bytes"),
	}
	j.wg.Add(1)
	go j.syncer()
	return j, batches, sessions, maxSeq, nil
}

// append enqueues rec. With wait set it blocks until the group commit
// containing the record has been fsynced and returns its outcome — the
// durability barrier a submit ack and a batch terminal record need.
// Without wait it returns once the record is queued; the syncer writes
// queued records in order, so a later waited append also covers it.
func (j *journal) append(rec *journalRecord, wait bool) error {
	line, err := json.Marshal(rec)
	if err != nil {
		j.appendErr.Inc()
		return fmt.Errorf("journal: encode: %w", err)
	}
	aw := appendWait{line: append(line, '\n')}
	if wait {
		aw.done = make(chan error, 1)
	}
	select {
	case j.ch <- aw:
	case <-j.quit:
		j.appendErr.Inc()
		return errJournalDown
	}
	if !wait {
		return nil
	}
	select {
	case err := <-aw.done:
		if err != nil {
			j.appendErr.Inc()
		}
		return err
	case <-j.quit:
		j.appendErr.Inc()
		return errJournalDown
	}
}

// syncer is the single writer: it drains whatever is queued, writes the
// batch in one contiguous write, fsyncs once, and releases every waiter
// of the group. It exits when quit closes — flushing the queue on a
// graceful close, dropping it on kill.
func (j *journal) syncer() {
	defer j.wg.Done()
	var buf []byte
	var waits []chan error
	for {
		var first appendWait
		select {
		case first = <-j.ch:
		case <-j.quit:
			if !j.killed {
				j.flushQueued()
			}
			j.refuseQueued()
			j.f.Close()
			return
		}
		buf, waits = buf[:0], waits[:0]
		buf = append(buf, first.line...)
		if first.done != nil {
			waits = append(waits, first.done)
		}
	drain:
		for len(buf) < 1<<20 {
			select {
			case aw := <-j.ch:
				buf = append(buf, aw.line...)
				if aw.done != nil {
					waits = append(waits, aw.done)
				}
			default:
				break drain
			}
		}
		err := j.commit(buf)
		for _, d := range waits {
			d <- err
		}
	}
}

// commit writes one group's lines and fsyncs.
func (j *journal) commit(buf []byte) error {
	if _, err := j.f.Write(buf); err != nil {
		j.appendErr.Inc()
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.appendErr.Inc()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.fsyncs.Inc()
	j.bytes.Add(int64(len(buf)))
	j.appends.Add(int64(countLines(buf)))
	return nil
}

// flushQueued commits everything still sitting in the channel (graceful
// close path). Senders blocked on done channels were all released by
// commit already or will be refused below; queued fire-and-forget lines
// make it to disk.
func (j *journal) flushQueued() {
	var buf []byte
	var waits []chan error
	for {
		select {
		case aw := <-j.ch:
			buf = append(buf, aw.line...)
			if aw.done != nil {
				waits = append(waits, aw.done)
			}
		default:
			err := error(nil)
			if len(buf) > 0 {
				err = j.commit(buf)
			}
			for _, d := range waits {
				d <- err
			}
			return
		}
	}
}

// refuseQueued fails any waiter that raced its enqueue against quit.
func (j *journal) refuseQueued() {
	for {
		select {
		case aw := <-j.ch:
			if aw.done != nil {
				aw.done <- errJournalDown
			}
		default:
			return
		}
	}
}

// close flushes queued records and releases the file. Idempotent with
// kill — whichever runs first decides the teardown mode.
func (j *journal) close() {
	j.down.Do(func() { close(j.quit) })
	j.wg.Wait()
}

// kill emulates a process crash: queued-but-uncommitted records are
// dropped, future appends fail, and the file handle is released without
// a final flush. Records whose group commit already fsynced are — as
// with a real kill -9 — on disk. Idempotent with close.
func (j *journal) kill() {
	j.down.Do(func() {
		j.killed = true
		close(j.quit)
	})
	j.wg.Wait()
}

// appendSubmit journals a batch acknowledgment, with the tenant and
// priority of its submit header hdr, and waits for the fsync: once it
// returns nil the submission survives any crash.
func (j *journal) appendSubmit(id string, req *jobsRequest, fps []string, hdr http.Header) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("journal: encode request: %w", err)
	}
	return j.append(&journalRecord{Kind: recSubmit, ID: id, Req: raw, Fps: fps,
		Tenant: hdr.Get("X-Hilight-Tenant"), Priority: hdr.Get("X-Hilight-Priority")}, true)
}

// appendJob journals one job completion (fire-and-forget: the batch
// terminal record is the durability barrier that covers it).
func (j *journal) appendJob(id string, job int, r *jobResult) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: encode result: %w", err)
	}
	return j.append(&journalRecord{Kind: recJob, ID: id, Job: job, Res: raw}, false)
}

// appendDone seals a batch: it waits for the fsync, so every completion
// queued before it is durable once it returns.
func (j *journal) appendDone(id string) error {
	return j.append(&journalRecord{Kind: recDone, ID: id}, true)
}

// appendEvict journals a batch eviction (fire-and-forget; a lost evict
// only means the next compaction re-drops the batch).
func (j *journal) appendEvict(id string) error {
	return j.append(&journalRecord{Kind: recEvict, ID: id}, false)
}

// appendSession journals a session recompile's lineage and stored result,
// waiting for the fsync: once it returns nil the child schedule — and
// with it the warm-start parent chain — survives any crash, so an acked
// session request is never lost.
func (j *journal) appendSession(child, parent string, res json.RawMessage) error {
	return j.append(&journalRecord{Kind: recSession, ID: child, Fps: []string{parent}, Res: res}, true)
}

// parseBatchSeq extracts the numeric sequence from a "job-%06d" id.
func parseBatchSeq(id string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(id, "job-%d", &seq); err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// readJournal parses the journal into per-batch replay state. A torn
// tail — a trailing line that is incomplete or fails to parse, the only
// damage an append-only log can take from a crash — is dropped and
// counted; replay stops at the first damaged line since nothing after
// it can be trusted. Duplicate completions for the same (batch, job)
// keep the first record and are counted: a correct journal never
// contains one, so the counter doubles as the chaos harness's
// no-duplicates probe.
func readJournal(path string, m *obs.Registry) ([]*replayBatch, []*journalRecord, int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	torn := m.Counter("journal/torn-records")
	dups := m.Counter("journal/duplicate-completions")
	var (
		batches  []*replayBatch
		sessions []*journalRecord
		sessIdx  = map[string]int{}
		byID     = map[string]*replayBatch{}
		evicted  = map[string]bool{}
		maxSeq   int
	)
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				torn.Inc() // crash mid-write: no trailing newline
			}
			break
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("journal: read: %w", err)
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			torn.Inc()
			break
		}
		if seq, ok := parseBatchSeq(rec.ID); ok && seq > maxSeq {
			maxSeq = seq
		}
		if evicted[rec.ID] {
			continue
		}
		switch rec.Kind {
		case recSubmit:
			if byID[rec.ID] != nil {
				continue // duplicate submit: keep the first
			}
			rb := &replayBatch{id: rec.ID, reqRaw: rec.Req, fps: rec.Fps, tenant: rec.Tenant, priority: rec.Priority}
			rb.seq, _ = parseBatchSeq(rec.ID)
			if err := json.Unmarshal(rec.Req, &rb.req); err != nil {
				torn.Inc()
				continue
			}
			rb.results = make([]jobResult, len(rb.fps))
			byID[rec.ID] = rb
			batches = append(batches, rb)
		case recJob:
			rb := byID[rec.ID]
			if rb == nil || rec.Job < 0 || rec.Job >= len(rb.results) {
				continue
			}
			if rb.results[rec.Job].Result != nil || rb.results[rec.Job].Error != "" {
				dups.Inc()
				continue
			}
			var jr jobResult
			if err := json.Unmarshal(rec.Res, &jr); err != nil {
				torn.Inc()
				continue
			}
			rb.results[rec.Job] = jr
			rb.have++
		case recDone:
			if rb := byID[rec.ID]; rb != nil && rb.have == len(rb.results) {
				rb.done = true
			}
		case recEvict:
			if rb := byID[rec.ID]; rb != nil {
				delete(byID, rec.ID)
				for i, b := range batches {
					if b.id == rec.ID {
						batches = append(batches[:i], batches[i+1:]...)
						break
					}
				}
			}
			evicted[rec.ID] = true
		case recSession:
			if len(rec.Res) == 0 {
				torn.Inc()
				continue
			}
			r := rec
			if i, ok := sessIdx[rec.ID]; ok {
				// The same child fingerprint recompiled again (e.g. against a
				// different parent after a defect feed): the newest lineage
				// wins, matching the cache's view of the fingerprint.
				sessions[i] = &r
				continue
			}
			sessIdx[rec.ID] = len(sessions)
			sessions = append(sessions, &r)
		}
	}
	return batches, sessions, maxSeq, nil
}

// pruneSessions bounds retained session records: the newest maxStored
// survive, older lineage is compacted away (losing it only costs a cold
// recompile after the next restart, never correctness).
func pruneSessions(sessions []*journalRecord, maxStored int, m *obs.Registry) []*journalRecord {
	drop := len(sessions) - maxStored
	if drop <= 0 {
		return sessions
	}
	m.Counter("journal/compacted-away").Add(int64(drop))
	return sessions[drop:]
}

// pruneReplay applies the job store's retention policy to the replayed
// batches: every unfinished batch survives, finished batches beyond
// maxStored are dropped oldest-first.
func pruneReplay(batches []*replayBatch, maxStored int, m *obs.Registry) []*replayBatch {
	finished := 0
	for _, rb := range batches {
		if rb.done {
			finished++
		}
	}
	drop := finished - maxStored
	if drop <= 0 {
		return batches
	}
	pruned := m.Counter("journal/compacted-away")
	kept := batches[:0]
	for _, rb := range batches {
		if rb.done && drop > 0 {
			drop--
			pruned.Inc()
			continue
		}
		kept = append(kept, rb)
	}
	return kept
}

// compactJournal rewrites the journal to exactly the retained batches:
// tmp file, fsync, atomic rename, directory fsync. A crash at any point
// leaves either the old or the new journal intact.
func compactJournal(path string, batches []*replayBatch, sessions []*journalRecord) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rb := range batches {
		if err := enc.Encode(&journalRecord{Kind: recSubmit, ID: rb.id, Req: rb.reqRaw, Fps: rb.fps,
			Tenant: rb.tenant, Priority: rb.priority}); err != nil {
			f.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
		for i := range rb.results {
			if rb.results[i].Result == nil && rb.results[i].Error == "" {
				continue
			}
			raw, err := json.Marshal(&rb.results[i])
			if err != nil {
				f.Close()
				return fmt.Errorf("journal: compact: %w", err)
			}
			if err := enc.Encode(&journalRecord{Kind: recJob, ID: rb.id, Job: i, Res: raw}); err != nil {
				f.Close()
				return fmt.Errorf("journal: compact: %w", err)
			}
		}
		if rb.done {
			if err := enc.Encode(&journalRecord{Kind: recDone, ID: rb.id}); err != nil {
				f.Close()
				return fmt.Errorf("journal: compact: %w", err)
			}
		}
	}
	for _, rec := range sessions {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("journal: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

func countLines(buf []byte) int {
	n := 0
	for _, b := range buf {
		if b == '\n' {
			n++
		}
	}
	return n
}
