package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hilight"
	"hilight/internal/cluster"
	"hilight/internal/obs"
	"hilight/internal/service"
)

// TestClusterSoak is the multi-node soak behind `make cluster-smoke`:
// one journaled coordinator over three in-process workers, a worker
// killed in the middle of an acked batch, then the coordinator itself.
// Invariants:
//
//   - no acked job is lost — every unit of every acked batch reaches a
//     terminal result even though the worker running some of them died,
//     or the coordinator that acked it;
//   - the coordinator stops routing to the dead worker within a probe
//     interval or two (the worker-up gauge drops, the ring reshards);
//   - repeated fingerprints hit the sharded caches at least as often as
//     a single node serving the same sequence — scaling out does not
//     cost hit rate.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak skipped in -short mode")
	}
	const probe = 50 * time.Millisecond

	// Slow every routing cycle a little so batches are reliably still in
	// flight when the kill lands. Applies to every in-process node —
	// cluster workers and the single-node reference alike.
	service.SetChaosHooks(&service.ChaosHooks{OnRouteCycle: func(hilight.CycleStats) {
		time.Sleep(200 * time.Microsecond)
	}})
	t.Cleanup(func() { service.SetChaosHooks(nil) })

	// Three workers, each with its own registry so per-node cache
	// traffic is observable the same way /metrics exposes it.
	var workers []*cluster.LocalWorker
	var regs []*obs.Registry
	var urls []string
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		w, err := cluster.StartLocalWorker(fmt.Sprintf("w%d", i+1), service.Config{Metrics: reg})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		defer w.Kill()
		workers = append(workers, w)
		regs = append(regs, reg)
		urls = append(urls, w.URL)
	}
	cm := obs.NewRegistry()
	journalDir := t.TempDir()
	co, err := cluster.New(cluster.Config{Workers: urls, ProbeInterval: probe, Metrics: cm, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer func() { ts.Close() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
	}()

	batch := func(n, seed int) map[string]any {
		jobs := make([]any, n)
		for i := range jobs {
			jobs[i] = map[string]any{
				"benchmark": "QFT-10",
				"grid":      map[string]any{"w": 7 + i%6, "h": 7 + i%5},
			}
		}
		return map[string]any{"jobs": jobs, "seed": seed}
	}

	// Phase 1 — hit-rate parity. The same batch twice through the
	// cluster: run one misses everywhere, run two must be all hits even
	// though the units scattered across three caches, because routing is
	// deterministic on the fingerprint.
	const units = 12
	submit := func(base string, body map[string]any) string {
		t.Helper()
		resp, ack := soakPost(t, base+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, ack)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(ack, &sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}
	waitDone := func(base, id string) []byte {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for time.Now().Before(deadline) {
			resp, body := soakGet(t, base+"/v1/jobs/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll %s: %d: %s", id, resp.StatusCode, body)
			}
			var st struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Status == "done" {
				return body
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("job %s never finished", id)
		return nil
	}
	clusterHits := func() int64 {
		var n int64
		for _, reg := range regs {
			if v, ok := reg.Snapshot().Counter("cache/hits"); ok {
				n += v
			}
		}
		return n
	}

	waitDone(ts.URL, submit(ts.URL, batch(units, 1)))
	before := clusterHits()
	waitDone(ts.URL, submit(ts.URL, batch(units, 1)))
	clusterRepeatHits := clusterHits() - before

	// The single-node reference for the same sequence.
	refReg := obs.NewRegistry()
	ref, err := cluster.StartLocalWorker("ref", service.Config{Metrics: refReg})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Kill()
	waitDone(ref.URL, submit(ref.URL, batch(units, 1)))
	refBefore, _ := refReg.Snapshot().Counter("cache/hits")
	waitDone(ref.URL, submit(ref.URL, batch(units, 1)))
	refAfter, _ := refReg.Snapshot().Counter("cache/hits")
	if refRepeatHits := refAfter - refBefore; clusterRepeatHits < refRepeatHits {
		t.Errorf("repeat-batch cache hits: cluster %d < single node %d — sharding lost hit rate",
			clusterRepeatHits, refRepeatHits)
	}

	// Phase 2 — kill a worker mid-batch. Fresh fingerprints so every
	// unit really compiles (and therefore takes long enough to be in
	// flight when the worker dies).
	id := submit(ts.URL, batch(24, 99))
	time.Sleep(30 * time.Millisecond) // let dispatch start
	killedAt := time.Now()
	workers[1].Kill()

	final := waitDone(ts.URL, id)
	checkFinal := func(final []byte, fps []string, what string) {
		t.Helper()
		var st struct {
			Results []struct {
				Error  string `json:"error,omitempty"`
				Result *struct {
					Fingerprint string `json:"fingerprint"`
				} `json:"result,omitempty"`
			} `json:"results"`
		}
		if err := json.Unmarshal(final, &st); err != nil {
			t.Fatalf("final poll: %v: %s", err, final)
		}
		if len(st.Results) != 24 {
			t.Fatalf("acked 24 units, final poll has %d results", len(st.Results))
		}
		for i, r := range st.Results {
			switch {
			case r.Error != "":
				t.Errorf("acked unit %d lost to the %s: %s", i, what, r.Error)
			case r.Result == nil:
				t.Errorf("acked unit %d has neither result nor error", i)
			case fps != nil && r.Result.Fingerprint != fps[i]:
				t.Errorf("unit %d fingerprint %q, acked %q", i, r.Result.Fingerprint, fps[i])
			}
		}
	}
	checkFinal(final, nil, "worker kill")

	// The coordinator noticed within the probe budget. waitDone already
	// bounded the wall clock; here we pin the detection itself.
	deadline := killedAt.Add(10 * probe)
	for {
		if v, _ := cm.Snapshot().Gauge("cluster/worker-up"); v == 2 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := cm.Snapshot().Gauge("cluster/worker-up")
			t.Fatalf("worker-up still %d well past the probe budget", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := cm.Snapshot()
	if v, _ := snap.Counter("cluster/hash-moves"); v == 0 {
		t.Error("ring never resharded after the kill")
	}
	if v, _ := snap.Counter("cluster/requeues"); v == 0 {
		t.Log("note: kill landed between dispatches (no requeues needed)")
	}
	req, _ := snap.Counter("cluster/requeues")
	steals, _ := snap.Counter("cluster/steals")
	done, _ := snap.Counter("cluster/units-done")
	t.Logf("soak: %d units done, %d requeues, %d steals, repeat hits cluster=%d single=%d",
		done, req, steals, clusterRepeatHits, refAfter-refBefore)

	// Phase 3 — kill the coordinator mid-batch. A new coordinator over
	// the same journal completes the acked batch under the acked
	// fingerprints, re-running only the units the first one never
	// journaled.
	resp, ack := soakPost(t, ts.URL+"/v1/jobs", batch(24, 7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, ack)
	}
	var sub struct {
		ID           string   `json:"id"`
		Fingerprints []string `json:"fingerprints"`
	}
	if err := json.Unmarshal(ack, &sub); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let dispatch start
	ts.Close()
	co.Kill()
	cm2 := obs.NewRegistry()
	co, err = cluster.New(cluster.Config{Workers: urls, ProbeInterval: probe, Metrics: cm2, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(co.Handler())
	checkFinal(waitDone(ts.URL, sub.ID), sub.Fingerprints, "coordinator kill")
	snap = cm2.Snapshot()
	if v, _ := snap.Counter("journal/duplicate-completions"); v != 0 {
		t.Errorf("journal/duplicate-completions = %d after the coordinator kill, want 0", v)
	}
	rerun, _ := snap.Counter("journal/rerun-jobs")
	t.Logf("soak: restarted coordinator re-ran %d of 24 units", rerun)
}

func soakPost(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func soakGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}
