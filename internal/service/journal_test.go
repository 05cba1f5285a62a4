package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hilight"
	"hilight/internal/obs"
)

// bootJournaled boots a journal-backed test server WITHOUT the automatic
// cleanup newTestServer installs: restart tests stop and reboot servers
// themselves, and crash tests must skip the graceful shutdown entirely.
func bootJournaled(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.JournalDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, httptest.NewServer(s.Handler())
}

func stopGracefully(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// submitBatch posts a small async batch and returns the ack.
func submitBatch(t *testing.T, url string, benchmarks ...string) (id string, fps []string) {
	t.Helper()
	jobs := make([]map[string]any, len(benchmarks))
	for i, b := range benchmarks {
		jobs[i] = map[string]any{"benchmark": b}
	}
	resp, body := postJSON(t, url+"/v1/jobs", map[string]any{"jobs": jobs, "compact": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var ack struct {
		ID           string   `json:"id"`
		Count        int      `json:"count"`
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("ack: %v: %s", err, body)
	}
	if ack.Count != len(benchmarks) || len(ack.Fingerprints) != len(benchmarks) {
		t.Fatalf("ack = %+v, want %d jobs with fingerprints", ack, len(benchmarks))
	}
	return ack.ID, ack.Fingerprints
}

// pollDone polls the batch until it reports done and returns the final
// response body.
func pollDone(t *testing.T, url, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := getBody(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d: %s", id, resp.StatusCode, body)
		}
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("poll: %v: %s", err, body)
		}
		if st.Status == "done" {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never finished: %s", id, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalReplayDeterminism is the replay-twice check: a journaled
// batch must answer GET /v1/jobs/{id} byte-for-byte identically after
// every restart, and each result must carry the fingerprint the ack
// promised.
func TestJournalReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	id, fps := submitBatch(t, ts.URL, "rd32_270", "4gt11_82", "alu-v0_26")
	first := pollDone(t, ts.URL, id)
	stopGracefully(t, s, ts)

	for round := 1; round <= 2; round++ {
		s, ts = bootJournaled(t, dir, Config{Workers: 2})
		replayed := pollDone(t, ts.URL, id)
		if !bytes.Equal(first, replayed) {
			t.Fatalf("replay %d: poll body diverged\nfirst: %s\nreplay: %s", round, first, replayed)
		}
		stopGracefully(t, s, ts)
	}

	var st jobStatus
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	for i, r := range st.Results {
		if r.Result == nil {
			t.Fatalf("job %d failed: %s", i, r.Error)
		}
		if r.Result.Fingerprint != fps[i] {
			t.Fatalf("job %d fingerprint %q, want acked %q", i, r.Result.Fingerprint, fps[i])
		}
	}
}

// TestJournalKillMidBatchNoLoss crashes the daemon right after the 202
// ack and asserts the next life finishes the batch under the same id:
// zero acknowledged jobs lost, fingerprints as promised.
func TestJournalKillMidBatchNoLoss(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	id, fps := submitBatch(t, ts.URL, "rd32_270", "4gt11_82", "4gt5_75", "alu-v0_26")

	// Crash: no drain, no journal flush beyond what already fsynced.
	ts.Close()
	s.Kill()

	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2})
	body := pollDone(t, ts2.URL, id)
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Count != len(fps) || len(st.Results) != len(fps) {
		t.Fatalf("resurrected batch has %d/%d results, want %d", len(st.Results), st.Count, len(fps))
	}
	for i, r := range st.Results {
		if r.Result == nil {
			t.Fatalf("job %d lost to the crash: %s", i, r.Error)
		}
		if r.Result.Fingerprint != fps[i] {
			t.Fatalf("job %d fingerprint %q, want acked %q", i, r.Result.Fingerprint, fps[i])
		}
	}
	stopGracefully(t, s2, ts2)
	waitNoCompileGoroutines(t)
}

// TestJournalResurrectionRerunsOnlyIncomplete doctors a finished
// journal — deleting the terminal record and one job's completion — and
// asserts the replay serves the surviving completion byte-identically
// while re-running only the missing job.
func TestJournalResurrectionRerunsOnlyIncomplete(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	id, fps := submitBatch(t, ts.URL, "rd32_270", "4gt11_82")
	before := pollDone(t, ts.URL, id)
	stopGracefully(t, s, ts)

	// Emulate a crash that lost job 1's completion and the seal: keep
	// the submit record and job 0's completion only.
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Kind == recDone || (rec.Kind == recJob && rec.Job == 1) {
			continue
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.NewRegistry()
	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2, Metrics: m, CacheBytes: -1})
	after := pollDone(t, ts2.URL, id)

	var stBefore, stAfter jobStatus
	if err := json.Unmarshal(before, &stBefore); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &stAfter); err != nil {
		t.Fatal(err)
	}
	b0, _ := json.Marshal(stBefore.Results[0])
	a0, _ := json.Marshal(stAfter.Results[0])
	if !bytes.Equal(b0, a0) {
		t.Fatalf("journaled job 0 not served verbatim:\nbefore: %s\nafter: %s", b0, a0)
	}
	if stAfter.Results[1].Result == nil {
		t.Fatalf("re-run job 1 failed: %s", stAfter.Results[1].Error)
	}
	if stAfter.Results[1].Result.Fingerprint != fps[1] {
		t.Fatalf("re-run job 1 fingerprint %q, want acked %q", stAfter.Results[1].Result.Fingerprint, fps[1])
	}
	snap := m.Snapshot()
	if v, _ := snap.Counter("journal/replayed-jobs"); v != 1 {
		t.Errorf("journal/replayed-jobs = %d, want 1", v)
	}
	if v, _ := snap.Counter("journal/rerun-jobs"); v != 1 {
		t.Errorf("journal/rerun-jobs = %d, want 1", v)
	}
	if v, _ := snap.Counter("journal/resurrected-batches"); v != 1 {
		t.Errorf("journal/resurrected-batches = %d, want 1", v)
	}
	stopGracefully(t, s2, ts2)
	waitNoCompileGoroutines(t)
}

// TestJournalResurrectsRetiredLookahead pins lenient journal replay
// across the lookahead and route_workers request fields' removal: a
// batch acked and journaled by an older daemon, whose submit record
// still carries "lookahead":4 and "route_workers":2, must resurrect and
// complete under the fingerprints its ack promised, although a new
// request naming either field is a 400.
func TestJournalResurrectsRetiredLookahead(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"jobs":   []map[string]any{{"benchmark": "QFT-16"}, {"benchmark": "rd32_270"}},
		"method": "hilight-map-parallel",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var ack struct {
		ID           string   `json:"id"`
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("ack: %v: %s", err, body)
	}
	pollDone(t, ts.URL, ack.ID)
	stopGracefully(t, s, ts)

	// Leave what the older daemon would after a crash right behind the
	// ack: the submit record alone, its request carrying the fields.
	rec := doctorSubmit(t, dir, func(req map[string]any) {
		req["lookahead"] = 4
		req["route_workers"] = 2
	})
	if !strings.Contains(rec, `"lookahead":4`) || !strings.Contains(rec, `"route_workers":2`) {
		t.Fatalf("doctored journal = %q, want a submit record carrying lookahead and route_workers", rec)
	}

	m := obs.NewRegistry()
	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2, Metrics: m})
	var st jobStatus
	if err := json.Unmarshal(pollDone(t, ts2.URL, ack.ID), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != len(ack.Fingerprints) {
		t.Fatalf("resurrected batch has %d results, want %d", len(st.Results), len(ack.Fingerprints))
	}
	for i, r := range st.Results {
		if r.Result == nil {
			t.Fatalf("job %d failed after resurrection: %s", i, r.Error)
		}
		if r.Result.Fingerprint != ack.Fingerprints[i] {
			t.Fatalf("job %d fingerprint %q, want acked %q", i, r.Result.Fingerprint, ack.Fingerprints[i])
		}
	}
	if v, _ := m.Snapshot().Counter("journal/rerun-jobs"); v != int64(len(ack.Fingerprints)) {
		t.Errorf("journal/rerun-jobs = %d, want %d", v, len(ack.Fingerprints))
	}
	stopGracefully(t, s2, ts2)
	waitNoCompileGoroutines(t)
}

// doctorSubmit rewrites the journal in dir to what a daemon leaves after
// a crash right behind the ack, the single submit record alone, with its
// request edited by edit. It returns the rewritten record.
func doctorSubmit(t *testing.T, dir string, edit func(req map[string]any)) string {
	t.Helper()
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Kind != recSubmit {
			continue
		}
		var req map[string]any
		if err := json.Unmarshal(rec.Req, &req); err != nil {
			t.Fatal(err)
		}
		edit(req)
		rec.Req, _ = json.Marshal(req)
		out, _ := json.Marshal(&rec)
		kept = append(kept, string(out))
	}
	if len(kept) != 1 {
		t.Fatalf("journal has %d submit records, want 1", len(kept))
	}
	if err := os.WriteFile(path, []byte(kept[0]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return kept[0]
}

// A batch acknowledged with a grid that tilesPerQubit now rejects
// replays to a typed job failure, since its request no longer resolves,
// instead of compiling over the grid.
func TestJournalReplaysOversizeGridAsFailure(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	id, _ := submitBatch(t, ts.URL, "QFT-16")
	pollDone(t, ts.URL, id)
	stopGracefully(t, s, ts)
	doctorSubmit(t, dir, func(req map[string]any) {
		req["jobs"] = []any{map[string]any{"benchmark": "QFT-16", "grid": map[string]any{"w": 2048, "h": 2048}}}
	})

	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2})
	var st jobStatus
	if err := json.Unmarshal(pollDone(t, ts2.URL, id), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 1 || st.Results[0].Result != nil ||
		!strings.Contains(st.Results[0].Error, "resurrection failed") ||
		!strings.Contains(st.Results[0].Error, "too large for 16 qubits") {
		t.Fatalf("replayed batch = %+v, want one job failing on the tiles-per-qubit bound", st.Results)
	}
	stopGracefully(t, s2, ts2)
	waitNoCompileGoroutines(t)
}

// TestJournalTornTail appends garbage and a partial line to a valid
// journal and asserts replay stops cleanly at the damage, counts it,
// and compaction scrubs it from disk.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	id, _ := submitBatch(t, ts.URL, "rd32_270")
	pollDone(t, ts.URL, id)
	stopGracefully(t, s, ts)

	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write: half a JSON object with no newline.
	if _, err := f.WriteString(`{"kind":"job","id":"job-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m := obs.NewRegistry()
	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2, Metrics: m})
	pollDone(t, ts2.URL, id) // the intact batch replays fine
	if v, _ := m.Snapshot().Counter("journal/torn-records"); v != 1 {
		t.Errorf("journal/torn-records = %d, want 1", v)
	}
	stopGracefully(t, s2, ts2)

	// Compaction ran before the new process appended: every surviving
	// line must parse.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("post-compaction line %q does not parse: %v", sc.Text(), err)
		}
	}
}

// TestJournalEvictionSurvivesReplay fills the store past MaxStoredJobs
// and asserts a restart converges on the same retained set: evicted
// batches 404 before AND after the restart, retained ones answer.
func TestJournalEvictionSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2, MaxStoredJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id, _ := submitBatch(t, ts.URL, "rd32_270")
		pollDone(t, ts.URL, id)
		ids = append(ids, id)
	}
	status := func(url string) []int {
		codes := make([]int, len(ids))
		for i, id := range ids {
			resp, _ := getBody(t, url+"/v1/jobs/"+id)
			codes[i] = resp.StatusCode
		}
		return codes
	}
	before := status(ts.URL)
	stopGracefully(t, s, ts)

	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2, MaxStoredJobs: 2})
	after := status(ts2.URL)
	for i := range ids {
		if before[i] != after[i] {
			t.Errorf("batch %s: %d before restart, %d after", ids[i], before[i], after[i])
		}
	}
	// The newest batches survived; ids never collide with evicted ones.
	if after[len(after)-1] != http.StatusOK {
		t.Errorf("newest batch gone after restart: %v", after)
	}
	id5, _ := submitBatch(t, ts2.URL, "rd32_270")
	for _, old := range ids {
		if id5 == old {
			t.Fatalf("post-restart submit reused id %s", id5)
		}
	}
	pollDone(t, ts2.URL, id5)
	stopGracefully(t, s2, ts2)
}

// TestJournalResumeKeepsTenantAndPriority pins the coordinator store's
// resumed units to the submit's X-Hilight-Tenant and X-Hilight-Priority:
// a store killed mid-batch, twice, hands the batch's dispatch the
// submit's values on each reopen, the second time from the compacted
// journal. A resumed unit that ran as the default tenant in the
// interactive lane would escape its tenant's quota and jump the batch
// lane.
func TestJournalResumeKeepsTenantAndPriority(t *testing.T) {
	dir := t.TempDir()
	type call struct{ tenant, priority string }
	// open opens the store over dir; its dispatch reports each call's
	// header on calls and, unless settleAll, holds the units until the
	// store is killed.
	open := func(calls chan<- call, settleAll bool) *JobStore {
		t.Helper()
		s, err := OpenJobStore(8, dir, obs.NewRegistry(),
			func(ctx context.Context, _ []Unit, todo []int, hdr http.Header, settle func(int, []byte, error)) {
				calls <- call{hdr.Get("X-Hilight-Tenant"), hdr.Get("X-Hilight-Priority")}
				err := errors.New("not compiled in this test")
				if !settleAll {
					<-ctx.Done()
					err = hilight.ErrCanceled // transient: the unit resumes
				}
				for _, i := range todo {
					settle(i, nil, err)
				}
			})
		if err != nil {
			t.Fatalf("OpenJobStore: %v", err)
		}
		return s
	}
	want := call{"acme", "batch"}
	hdr := http.Header{}
	hdr.Set("X-Hilight-Tenant", want.tenant)
	hdr.Set("X-Hilight-Priority", want.priority)
	body := []byte(`{"jobs":[{"benchmark":"rd32_270"},{"benchmark":"4gt11_82"}]}`)

	calls := make(chan call, 1)
	s := open(calls, false)
	id, _, err := s.Submit(body, hdr)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if got := <-calls; got != want {
		t.Fatalf("submit dispatched as %+v, want %+v", got, want)
	}
	for life := 2; life <= 3; life++ {
		s.Kill()
		s = open(calls, life == 3)
		select {
		case got := <-calls:
			if got != want {
				t.Errorf("life %d resumed %s as %+v, want %+v", life, id, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("life %d never resumed %s", life, id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestJournalResurrectedCacheHitNotCached resurrects a batch whose
// missing job a previous life compiled for an earlier batch: the replay
// serves it from the schedule cache, and its poll entry carries the
// earlier batch's result bytes, "cached": false, as every batch result
// does on either tier.
func TestJournalResurrectedCacheHitNotCached(t *testing.T) {
	dir := t.TempDir()
	s, ts := bootJournaled(t, dir, Config{Workers: 2})
	idA, _ := submitBatch(t, ts.URL, "rd32_270")
	pollDone(t, ts.URL, idA)
	idB, _ := submitBatch(t, ts.URL, "rd32_270")
	pollDone(t, ts.URL, idB)
	stopGracefully(t, s, ts)

	// Emulate a crash that lost batch B's completion and seal.
	path := filepath.Join(dir, journalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.ID == idB && (rec.Kind == recJob || rec.Kind == recDone) {
			continue
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := bootJournaled(t, dir, Config{Workers: 2})
	defer stopGracefully(t, s2, ts2)
	var results [2][]byte
	for k, id := range []string{idA, idB} {
		var st struct {
			Results []struct {
				Result json.RawMessage `json:"result"`
			} `json:"results"`
		}
		if err := json.Unmarshal(pollDone(t, ts2.URL, id), &st); err != nil {
			t.Fatal(err)
		}
		if len(st.Results) != 1 || st.Results[0].Result == nil {
			t.Fatalf("batch %s: results %+v, want one result", id, st.Results)
		}
		results[k] = st.Results[0].Result
		var meta struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(results[k], &meta); err != nil {
			t.Fatal(err)
		}
		if meta.Cached {
			t.Errorf("batch %s job 0 reports cached: true", id)
		}
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("the resurrected job's result differs from the batch that compiled it:\n%s\nvs\n%s", results[1], results[0])
	}
}
