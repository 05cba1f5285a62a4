package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"hilight"

	"hilight/internal/obs"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// testCluster is a coordinator fronting n in-process workers.
type testCluster struct {
	co      *Coordinator
	ts      *httptest.Server
	workers []*LocalWorker
	metrics *obs.Registry
}

func startCluster(t *testing.T, n int, wcfg service.Config, probe time.Duration) *testCluster {
	t.Helper()
	tc := &testCluster{metrics: obs.NewRegistry()}
	var urls []string
	for i := 0; i < n; i++ {
		w, err := StartLocalWorker(fmt.Sprintf("w%d", i+1), wcfg)
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		tc.workers = append(tc.workers, w)
		urls = append(urls, w.URL)
	}
	co, err := New(Config{
		Workers:       urls,
		ProbeInterval: probe,
		Metrics:       tc.metrics,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	tc.co = co
	tc.ts = httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		tc.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		for _, w := range tc.workers {
			w.Kill()
		}
	})
	return tc
}

// post sends a JSON body and returns the response plus buffered body.
func post(t *testing.T, url string, body any, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

func get(t *testing.T, url string) (*http.Response, []byte) {
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

// pollJob polls GET /v1/jobs/{id} until status done and returns the
// final body.
func pollJob(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d: %s", id, resp.StatusCode, body)
		}
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("poll %s: %v: %s", id, err, body)
		}
		if st.Status == "done" {
			return body
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// TestClusterCompileDeterminism is the cross-node determinism check:
// the same fingerprint through the coordinator twice lands on the same
// worker (the second serve is that worker's cache hit, visible in its
// /metrics), and the coordinator's JSON is byte-identical to a
// single node serving the same request.
func TestClusterCompileDeterminism(t *testing.T) {
	tc := startCluster(t, 3, service.Config{}, 100*time.Millisecond)
	reqBody := map[string]any{"benchmark": "QFT-10", "seed": 7}

	r1, b1 := post(t, tc.ts.URL+"/v1/compile", reqBody, nil)
	if r1.StatusCode != 200 {
		t.Fatalf("cluster compile: %d: %s", r1.StatusCode, b1)
	}
	w1 := r1.Header.Get("X-Hilight-Worker")
	if w1 == "" {
		t.Fatal("no X-Hilight-Worker header")
	}

	// Reference: the same request straight to the worker that served it.
	// It answers from its cache — a cached response is deterministic
	// (runtime and trace come from the stored compile), so these bytes
	// are exactly what a direct client of that node would see.
	var serving *LocalWorker
	for _, w := range tc.workers {
		if u, _ := url.Parse(w.URL); u.Host == w1 {
			serving = w
		}
	}
	if serving == nil {
		t.Fatalf("X-Hilight-Worker %q matches no worker", w1)
	}
	refResp, refJSON := post(t, serving.URL+"/v1/compile", reqBody, nil)
	if refResp.StatusCode != 200 {
		t.Fatalf("direct worker compile: %d: %s", refResp.StatusCode, refJSON)
	}

	r2, b2 := post(t, tc.ts.URL+"/v1/compile", reqBody, nil)
	if r2.StatusCode != 200 {
		t.Fatalf("repeat compile: %d: %s", r2.StatusCode, b2)
	}
	if w2 := r2.Header.Get("X-Hilight-Worker"); w2 != w1 {
		t.Errorf("repeat fingerprint moved workers: %s then %s", w1, w2)
	}
	var env struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(b2, &env); err != nil || !env.Cached {
		t.Errorf("repeat compile missed the sharded cache (err=%v): %s", err, b2[:min(200, len(b2))])
	}
	// The coordinator transcodes the node-to-node envelope back to the
	// canonical JSON: byte-identical to the worker's own response.
	if !bytes.Equal(b2, refJSON) {
		t.Errorf("coordinator JSON differs from the serving worker's JSON:\n%s\nvs\n%s", b2, refJSON)
	}

	// The serving worker's own /metrics shows both cache hits (the
	// direct reference request and the coordinator repeat).
	_, metrics := get(t, serving.URL+"/metrics")
	if !strings.Contains(string(metrics), "cache_hits_total 2") {
		t.Errorf("serving worker metrics lack the cache hits:\n%s", metrics)
	}
}

// dropTimings removes the wall-clock fields (runtime_ns, trace) from
// every batch result so two independent executions become comparable.
func dropTimings(t *testing.T, body []byte) []byte {
	t.Helper()
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("dropTimings: %v: %s", err, body)
	}
	results, _ := st["results"].([]any)
	for _, r := range results {
		entry, _ := r.(map[string]any)
		if res, ok := entry["result"].(map[string]any); ok {
			delete(res, "runtime_ns")
			delete(res, "trace")
		}
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterJobsByteIdentical runs the same async batch through a
// single node and through the coordinator and requires the poll bodies
// to match byte for byte, for the default JSON poll and for a binary
// one.
func TestClusterJobsByteIdentical(t *testing.T) {
	batch := map[string]any{
		"jobs": []any{
			map[string]any{"benchmark": "QFT-10"},
			map[string]any{"benchmark": "QFT-10", "grid": map[string]any{"w": 7, "h": 7}},
			map[string]any{"benchmark": "QFT-10", "grid": map[string]any{"w": 8, "h": 8}},
			map[string]any{"benchmark": "QFT-10", "grid": map[string]any{"w": 9, "h": 9}},
		},
		"seed": 11,
	}

	ref, err := StartLocalWorker("ref", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Kill()
	refResp, refAck := post(t, ref.URL+"/v1/jobs", batch, nil)
	if refResp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference submit: %d: %s", refResp.StatusCode, refAck)
	}
	var refSub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(refAck, &refSub); err != nil {
		t.Fatal(err)
	}
	refFinal := pollJob(t, ref.URL, refSub.ID)

	tc := startCluster(t, 3, service.Config{}, 100*time.Millisecond)
	resp, ack := post(t, tc.ts.URL+"/v1/jobs", batch, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cluster submit: %d: %s", resp.StatusCode, ack)
	}
	if !bytes.Equal(ack, refAck) {
		t.Errorf("ack bodies differ:\n%s\nvs\n%s", ack, refAck)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &sub); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, tc.ts.URL, sub.ID)
	// runtime_ns and the per-stage trace timings are wall-clock — no two
	// executions agree on them, cluster or not. Everything else (ids,
	// ordering, fingerprints, schedules, status shape) must match byte
	// for byte after dropping those fields on both sides.
	if got, want := dropTimings(t, final), dropTimings(t, refFinal); !bytes.Equal(got, want) {
		t.Errorf("final poll bodies differ beyond timings:\ncluster: %s\nsingle:  %s", got, want)
	}

	// A single node answers a binary poll with each schedule as its
	// schedule_bin payload, so the coordinator must pass the workers'
	// payloads through instead of transcoding them to inline JSON.
	binPoll := func(base, id string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", wire.Binary.ContentType())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("binary poll %s: %d: %s", id, resp.StatusCode, body)
		}
		return body
	}
	refBin := binPoll(ref.URL, refSub.ID)
	if !bytes.Contains(refBin, []byte(`"schedule_bin"`)) {
		t.Fatalf("single-node binary poll carries no schedule_bin: %s", refBin)
	}
	if got, want := dropTimings(t, binPoll(tc.ts.URL, sub.ID)), dropTimings(t, refBin); !bytes.Equal(got, want) {
		t.Errorf("binary poll bodies differ beyond timings:\ncluster: %s\nsingle:  %s", got, want)
	}
	snap := tc.metrics.Snapshot()
	if v, _ := snap.Counter("cluster/units-done"); v != 4 {
		t.Errorf("cluster/units-done = %d, want 4", v)
	}
	if v, _ := snap.Counter("jobs/batches"); v != 1 {
		t.Errorf("jobs/batches = %d, want 1", v)
	}
}

// TestClusterWorkerDeathReshards kills a worker and requires the
// coordinator to stop routing to it within a probe interval or two:
// the up gauge drops, the ring reshards (hash-moves counts it), and
// compiles keep succeeding.
func TestClusterWorkerDeathReshards(t *testing.T) {
	tc := startCluster(t, 3, service.Config{}, 50*time.Millisecond)

	tc.workers[1].Kill()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, _ := tc.metrics.Snapshot().Gauge("cluster/worker-up"); v == 2 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := tc.metrics.Snapshot().Gauge("cluster/worker-up")
			t.Fatalf("worker-up still %d long after the kill", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v, _ := tc.metrics.Snapshot().Counter("cluster/hash-moves"); v == 0 {
		t.Error("ring reshard reported no hash moves")
	}

	// Fingerprints spread across the ring; all must still serve. The dead
	// worker's share either fails over inline (conn error -> retry) or is
	// routed around after the probe.
	for i := 0; i < 6; i++ {
		resp, body := post(t, tc.ts.URL+"/v1/compile",
			map[string]any{"benchmark": "QFT-10", "seed": i}, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("compile %d after worker death: %d: %s", i, resp.StatusCode, body)
		}
		if w := resp.Header.Get("X-Hilight-Worker"); strings.Contains(tc.workers[1].URL, w) {
			t.Errorf("compile %d routed to the dead worker %s", i, w)
		}
	}
}

// TestClusterPassthroughEndpoints pins /v1/methods and /v1/benchmarks
// to the single-node bodies, and /readyz to the aggregate worker
// health.
func TestClusterPassthroughEndpoints(t *testing.T) {
	ref, err := StartLocalWorker("ref", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Kill()
	tc := startCluster(t, 2, service.Config{}, 50*time.Millisecond)

	for _, ep := range []string{"/v1/methods", "/v1/benchmarks"} {
		_, refBody := get(t, ref.URL+ep)
		_, coBody := get(t, tc.ts.URL+ep)
		if !bytes.Equal(refBody, coBody) {
			t.Errorf("%s differs:\n%s\nvs\n%s", ep, coBody, refBody)
		}
	}

	if resp, _ := get(t, tc.ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz %d with live workers", resp.StatusCode)
	}
	for _, w := range tc.workers {
		w.Kill()
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, _ := get(t, tc.ts.URL+"/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz stayed 200 with every worker dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterTenantQuotaSpansBatch checks the tenant header rides along
// to workers: a worker-side tenant quota rejects the second concurrent
// unit of the same tenant, and the coordinator requeues instead of
// failing the unit.
func TestClusterStreamPassthrough(t *testing.T) {
	tc := startCluster(t, 2, service.Config{}, 100*time.Millisecond)
	data, _ := json.Marshal(map[string]any{"benchmark": "QFT-10"})
	req, _ := http.NewRequest("POST", tc.ts.URL+"/v1/compile?stream=1", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "stream") {
		t.Errorf("stream Content-Type %q relayed wrong", ct)
	}
	if resp.Header.Get("X-Hilight-Worker") == "" {
		t.Error("stream relay lost the worker attribution header")
	}
	if _, _, err := wire.ReadStream(bytes.NewReader(body)); err != nil {
		t.Errorf("relayed stream undecodable: %v", err)
	}
}

// dropCompileTimings removes the wall-clock fields from a compile
// response body so responses from independent daemons compare equal.
func dropCompileTimings(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("dropCompileTimings: %v: %s", err, body)
	}
	delete(m, "runtime_ns")
	delete(m, "trace")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterSessionAffinity drives a session recompile through the
// coordinator: a bogus parent fingerprint relays the worker's 412, a
// real one routes the child to the worker whose cache holds the parent
// (counted as a session affinity hit), the coordinator's cached bytes
// match the serving worker's own, and the session response agrees with
// a fresh single-node daemon serving the same edit.
func TestClusterSessionAffinity(t *testing.T) {
	tc := startCluster(t, 3, service.Config{}, 100*time.Millisecond)

	c := hilight.QFT(8)
	parentQASM := hilight.FormatQASM(c)
	child := c.Clone()
	child.Add2(hilight.CX, 0, 7)
	childQASM := hilight.FormatQASM(child)

	r1, b1 := post(t, tc.ts.URL+"/v1/compile", map[string]any{"qasm": parentQASM}, nil)
	if r1.StatusCode != 200 {
		t.Fatalf("cold compile: %d: %s", r1.StatusCode, b1)
	}
	var cold struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(b1, &cold); err != nil {
		t.Fatal(err)
	}
	w1 := r1.Header.Get("X-Hilight-Worker")
	if w1 == "" {
		t.Fatal("no X-Hilight-Worker header on the cold compile")
	}

	// A parent nobody holds: the worker's 412 relays untouched.
	rMiss, bMiss := post(t, tc.ts.URL+"/v1/compile", map[string]any{"qasm": childQASM},
		map[string]string{"If-Fingerprint-Match": "sha256:deadbeef"})
	if rMiss.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("bogus parent: status %d, want 412: %s", rMiss.StatusCode, bMiss)
	}

	// The real session routes on the parent fingerprint to the worker
	// that served it.
	rS, bS := post(t, tc.ts.URL+"/v1/compile", map[string]any{"qasm": childQASM},
		map[string]string{"If-Fingerprint-Match": cold.Fingerprint})
	if rS.StatusCode != 200 {
		t.Fatalf("session compile: %d: %s", rS.StatusCode, bS)
	}
	if got := rS.Header.Get("X-Hilight-Worker"); got != w1 {
		t.Errorf("session landed on %q, parent lives on %q", got, w1)
	}
	var warm struct {
		Fingerprint string `json:"fingerprint"`
		WarmCycles  int    `json:"warm_cycles"`
		Parent      string `json:"parent"`
	}
	if err := json.Unmarshal(bS, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.WarmCycles == 0 {
		t.Error("session through coordinator produced no warm cycles")
	}
	if warm.Parent != cold.Fingerprint {
		t.Errorf("session parent = %q, want %q", warm.Parent, cold.Fingerprint)
	}
	if got := tc.co.sessionAffinity.Value(); got != 1 {
		t.Errorf("cluster/session-affinity-hits = %d, want 1", got)
	}
	if got := tc.co.sessionForwards.Value(); got != 2 {
		t.Errorf("cluster/session-forwards = %d, want 2 (miss + hit)", got)
	}

	// The child is now cached on the serving worker; the coordinator's
	// transcoded bytes for it must match that worker's own JSON exactly.
	var serving *LocalWorker
	for _, w := range tc.workers {
		if u, _ := url.Parse(w.URL); u.Host == w1 {
			serving = w
		}
	}
	if serving == nil {
		t.Fatalf("X-Hilight-Worker %q matches no worker", w1)
	}
	rRep, bRep := post(t, tc.ts.URL+"/v1/compile", map[string]any{"qasm": childQASM},
		map[string]string{"If-Fingerprint-Match": cold.Fingerprint})
	if rRep.StatusCode != 200 {
		t.Fatalf("repeat session: %d: %s", rRep.StatusCode, bRep)
	}
	refResp, refJSON := post(t, serving.URL+"/v1/compile", map[string]any{"qasm": childQASM}, nil)
	if refResp.StatusCode != 200 {
		t.Fatalf("direct worker repeat: %d: %s", refResp.StatusCode, refJSON)
	}
	if !bytes.Equal(bRep, refJSON) {
		t.Errorf("coordinator session JSON differs from the serving worker's:\n%s\nvs\n%s", bRep, refJSON)
	}

	// And the whole exchange matches a single-node daemon running the
	// same edit, modulo wall-clock fields.
	ref, err := StartLocalWorker("ref", service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Kill()
	rc, bc := post(t, ref.URL+"/v1/compile", map[string]any{"qasm": parentQASM}, nil)
	if rc.StatusCode != 200 {
		t.Fatalf("single-node cold: %d: %s", rc.StatusCode, bc)
	}
	var refCold struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(bc, &refCold); err != nil {
		t.Fatal(err)
	}
	if refCold.Fingerprint != cold.Fingerprint {
		t.Fatalf("fingerprint diverged across daemons: %q vs %q", refCold.Fingerprint, cold.Fingerprint)
	}
	rw, bw := post(t, ref.URL+"/v1/compile", map[string]any{"qasm": childQASM},
		map[string]string{"If-Fingerprint-Match": refCold.Fingerprint})
	if rw.StatusCode != 200 {
		t.Fatalf("single-node session: %d: %s", rw.StatusCode, bw)
	}
	if a, b := dropCompileTimings(t, bS), dropCompileTimings(t, bw); !bytes.Equal(a, b) {
		t.Errorf("coordinator session disagrees with single-node daemon:\n%s\nvs\n%s", a, b)
	}
}

// TestClusterUnitCacheHits repeats a batch unit: the second dispatch of
// a fingerprint lands on the worker that compiled it, whose cache
// answers, and cluster/unit-cache-hits counts that once. The repeat's
// poll entry still says "cached": false, as every batch result does.
func TestClusterUnitCacheHits(t *testing.T) {
	tc := startCluster(t, 2, service.Config{}, time.Hour)
	submit := func(jobs ...any) []byte {
		t.Helper()
		resp, ack := post(t, tc.ts.URL+"/v1/jobs", map[string]any{"jobs": jobs, "seed": 3}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d: %s", resp.StatusCode, ack)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(ack, &sub); err != nil {
			t.Fatal(err)
		}
		return pollJob(t, tc.ts.URL, sub.ID)
	}
	qft := map[string]any{"benchmark": "QFT-10"}
	submit(qft)
	if v, _ := tc.metrics.Snapshot().Counter("cluster/unit-cache-hits"); v != 0 {
		t.Fatalf("cluster/unit-cache-hits = %d after the first unit, want 0", v)
	}
	final := submit(qft, map[string]any{"benchmark": "QFT-16"})
	snap := tc.metrics.Snapshot()
	if v, _ := snap.Counter("cluster/unit-cache-hits"); v != 1 {
		t.Errorf("cluster/unit-cache-hits = %d after the repeat, want 1", v)
	}
	if v, _ := snap.Counter("cluster/units-done"); v != 3 {
		t.Errorf("cluster/units-done = %d, want 3", v)
	}
	if bytes.Contains(final, []byte(`"cached": true`)) {
		t.Errorf("a batch result reports cached: %s", final)
	}
}

// TestClusterDefectFeed503MarksDown feeds defects to a worker that
// answers 503: the coordinator takes it out of the ring at once, as a
// compile forward does, instead of waiting for the next probe (which
// this test never lets run).
func TestClusterDefectFeed503MarksDown(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/defects" {
			service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is draining"})
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer worker.Close()
	m := obs.NewRegistry()
	co, err := New(Config{Workers: []string{worker.URL}, ProbeInterval: time.Hour, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Kill()
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/defects", map[string]any{"defects": map[string]any{"tiles": []int{0}}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("defect feed: %d: %s", resp.StatusCode, body)
	}
	var agg struct {
		FailedWorkers int `json:"failed_workers"`
	}
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.FailedWorkers != 1 {
		t.Errorf("failed_workers = %d, want 1: %s", agg.FailedWorkers, body)
	}
	if v, _ := m.Snapshot().Gauge("cluster/worker-up"); v != 0 {
		t.Errorf("cluster/worker-up = %d after a 503 defect feed, want 0", v)
	}
}
