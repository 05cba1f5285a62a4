package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/service"
)

// qftBatch is an async batch of n QFT-10 units on distinct grids, so
// every unit has its own fingerprint.
func qftBatch(n, seed int) map[string]any {
	jobs := make([]any, n)
	for i := range jobs {
		jobs[i] = map[string]any{
			"benchmark": "QFT-10",
			"grid":      map[string]any{"w": 7 + i%6, "h": 7 + i/6},
		}
	}
	return map[string]any{"jobs": jobs, "seed": seed}
}

// submitJobs posts a batch and returns its ack.
func submitJobs(t *testing.T, base string, batch map[string]any) (id string, fps []string) {
	t.Helper()
	resp, body := post(t, base+"/v1/jobs", batch, nil)
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
	return ack.ID, ack.Fingerprints
}

// journaledCoordinator starts a coordinator over workers that journals
// into dir.
func journaledCoordinator(t *testing.T, urls []string, dir string) (*Coordinator, *httptest.Server, *obs.Registry) {
	t.Helper()
	m := obs.NewRegistry()
	co, err := New(Config{Workers: urls, ProbeInterval: 50 * time.Millisecond, JournalDir: dir, Metrics: m})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return co, httptest.NewServer(co.Handler()), m
}

// TestClusterCoordinatorRestart closes the coordinator's ack hole: a
// coordinator with a journal is killed while an acked batch runs, and
// the coordinator that restarts over the same directory serves the
// finished batch byte for byte and completes the interrupted one under
// the fingerprints its ack promised, re-dispatching only the missing
// units.
func TestClusterCoordinatorRestart(t *testing.T) {
	var urls []string
	for _, id := range []string{"w1", "w2"} {
		w, err := StartLocalWorker(id, service.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Kill)
		urls = append(urls, w.URL)
	}
	dir := t.TempDir()

	co1, ts1, _ := journaledCoordinator(t, urls, dir)
	doneID, _ := submitJobs(t, ts1.URL, qftBatch(4, 3))
	doneBody := pollJob(t, ts1.URL, doneID)

	// Slow every routing cycle so the 24-unit batch is still running
	// when the kill lands.
	service.SetChaosHooks(&service.ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		time.Sleep(time.Millisecond)
	}})
	t.Cleanup(func() { service.SetChaosHooks(nil) })
	runID, fps := submitJobs(t, ts1.URL, qftBatch(24, 5))
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, ts1.URL+"/v1/jobs/"+runID)
		var st struct {
			Finished int `json:"finished"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("poll: %v: %s", err, body)
		}
		if st.Finished > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no unit finished before the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	co1.Kill()
	service.SetChaosHooks(nil)

	co2, ts2, m2 := journaledCoordinator(t, urls, dir)
	if got := pollJob(t, ts2.URL, doneID); !bytes.Equal(got, doneBody) {
		t.Errorf("finished batch after restart differs:\n%s\nvs\n%s", got, doneBody)
	}
	runBody := pollJob(t, ts2.URL, runID)
	var st struct {
		Results []struct {
			Error  string `json:"error"`
			Result *struct {
				Fingerprint string `json:"fingerprint"`
			} `json:"result"`
		} `json:"results"`
	}
	if err := json.Unmarshal(runBody, &st); err != nil {
		t.Fatalf("final poll: %v: %s", err, runBody)
	}
	if len(st.Results) != len(fps) {
		t.Fatalf("resumed batch has %d results, acked %d", len(st.Results), len(fps))
	}
	for i, r := range st.Results {
		if r.Result == nil {
			t.Fatalf("unit %d lost to the restart: %s", i, r.Error)
		}
		if r.Result.Fingerprint != fps[i] {
			t.Errorf("unit %d fingerprint %q, acked %q", i, r.Result.Fingerprint, fps[i])
		}
	}
	snap := m2.Snapshot()
	if v, _ := snap.Counter("journal/resurrected-batches"); v != 1 {
		t.Errorf("journal/resurrected-batches = %d, want 1", v)
	}
	if v, _ := snap.Counter("journal/rerun-jobs"); v == 0 || v >= int64(len(fps)) {
		t.Errorf("journal/rerun-jobs = %d, want the missing units only (0 < n < %d)", v, len(fps))
	}
	ts2.Close()
	co2.Kill()

	// A third life replays both batches sealed: the resumed units were
	// journaled once each, and the polls stay byte-identical.
	co3, ts3, m3 := journaledCoordinator(t, urls, dir)
	defer co3.Kill()
	defer ts3.Close()
	for id, want := range map[string][]byte{doneID: doneBody, runID: runBody} {
		if _, got := get(t, ts3.URL+"/v1/jobs/"+id); !bytes.Equal(got, want) {
			t.Errorf("batch %s on the third life differs:\n%s\nvs\n%s", id, got, want)
		}
	}
	snap = m3.Snapshot()
	if v, _ := snap.Counter("journal/duplicate-completions"); v != 0 {
		t.Errorf("journal/duplicate-completions = %d, want 0", v)
	}
	if v, _ := snap.Counter("journal/resurrected-batches"); v != 0 {
		t.Errorf("journal/resurrected-batches = %d on the third life, want 0 (both sealed)", v)
	}
}
