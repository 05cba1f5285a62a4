package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"hilight"
)

// postSession POSTs a compile request with an If-Fingerprint-Match
// header.
func postSession(t *testing.T, url, parent string, body any) (*http.Response, []byte) {
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
	if parent != "" {
		req.Header.Set("If-Fingerprint-Match", parent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// sessionCircuits returns a parent QASM and a child QASM (parent plus
// one appended CX) for session tests.
func sessionCircuits(t *testing.T, n int) (string, string) {
	t.Helper()
	c := hilight.QFT(n)
	parent := hilight.FormatQASM(c)
	child := c.Clone()
	child.Add2(hilight.CX, 0, n-1)
	return parent, hilight.FormatQASM(child)
}

func TestSessionRecompile(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	parentQASM, childQASM := sessionCircuits(t, 8)
	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"qasm": parentQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("cold compile: %d: %s", resp.StatusCode, body)
	}
	var cold compileResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}

	resp, body = postSession(t, ts.URL+"/v1/compile", cold.Fingerprint,
		map[string]any{"qasm": childQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("session compile: %d: %s", resp.StatusCode, body)
	}
	var warm compileResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.WarmCycles == 0 {
		t.Error("session recompile reported no warm cycles for an append edit")
	}
	if warm.Parent != cold.Fingerprint {
		t.Errorf("parent = %q, want %q", warm.Parent, cold.Fingerprint)
	}
	if len(warm.Delta) == 0 {
		t.Error("session response has no delta")
	}
	if warm.Fingerprint == cold.Fingerprint {
		t.Error("child fingerprint equals parent")
	}
	if warm.Cached {
		t.Error("fresh session recompile claims cached")
	}
	if got := s.sessions.Value(); got != 1 {
		t.Errorf("service/sessions = %d, want 1", got)
	}

	// The child is cached: repeating the session request (or a cold
	// request for the same circuit) hits.
	resp, body = postJSON(t, ts.URL+"/v1/compile", map[string]any{"qasm": childQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("repeat: %d: %s", resp.StatusCode, body)
	}
	var repeat compileResponse
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached || repeat.Fingerprint != warm.Fingerprint {
		t.Errorf("repeat not served from cache: cached=%v fp=%q", repeat.Cached, repeat.Fingerprint)
	}
}

func TestSessionParentMiss412(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, childQASM := sessionCircuits(t, 6)
	resp, body := postSession(t, ts.URL+"/v1/compile", "sha256:deadbeef",
		map[string]any{"qasm": childQASM})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("parent miss: status %d, want 412: %s", resp.StatusCode, body)
	}
	if got := s.sessionMisses.Value(); got != 1 {
		t.Errorf("service/session-parent-misses = %d, want 1", got)
	}
}

func TestSessionStreamRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, childQASM := sessionCircuits(t, 6)
	resp, body := postSession(t, ts.URL+"/v1/compile?stream=1", "sha256:deadbeef",
		map[string]any{"qasm": childQASM})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream+session: status %d, want 400: %s", resp.StatusCode, body)
	}
}

func TestDefectFeedSweep(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	parentQASM, _ := sessionCircuits(t, 8)
	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"qasm": parentQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("cold compile: %d: %s", resp.StatusCode, body)
	}
	var cold compileResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	schd, err := hilight.DecodeScheduleJSON(cold.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	dead := schd.Layers[0][0].Path[0]

	// A defect on a routed vertex invalidates and recompiles the entry.
	resp, body = postJSON(t, ts.URL+"/v1/defects", map[string]any{
		"defects": map[string]any{"vertices": []int{dead}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("defect feed: %d: %s", resp.StatusCode, body)
	}
	var feed DefectsResponse
	if err := json.Unmarshal(body, &feed); err != nil {
		t.Fatal(err)
	}
	if feed.Checked != 1 || feed.Conflicting != 1 || feed.Evicted != 1 || feed.Recompiled != 1 {
		t.Fatalf("feed = %+v, want 1 checked/conflicting/evicted/recompiled", feed)
	}
	newFP := feed.Fingerprints[cold.Fingerprint]
	if newFP == "" || newFP == cold.Fingerprint {
		t.Fatalf("feed fingerprint mapping %q -> %q", cold.Fingerprint, newFP)
	}

	// The recompiled schedule is served from cache under the degraded
	// request and routes clear of the dead vertex.
	resp, body = postJSON(t, ts.URL+"/v1/compile", map[string]any{
		"qasm":    parentQASM,
		"defects": map[string]any{"vertices": []int{dead}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("degraded compile: %d: %s", resp.StatusCode, body)
	}
	var after compileResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if !after.Cached || after.Fingerprint != newFP {
		t.Errorf("degraded request not served from feed's recompile: cached=%v fp=%q want %q",
			after.Cached, after.Fingerprint, newFP)
	}
	reschd, err := hilight.DecodeScheduleJSON(after.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range reschd.Layers {
		for _, b := range l {
			for _, v := range b.Path {
				if v == dead {
					t.Fatalf("recompiled schedule routes through dead vertex %d", v)
				}
			}
		}
	}
	if got := s.defectRecompiled.Value(); got != 1 {
		t.Errorf("service/defect-recompiles = %d, want 1", got)
	}

	// A feed that heals everything touches nothing: no schedule
	// geometrically conflicts with an empty map.
	resp, body = postJSON(t, ts.URL+"/v1/defects", map[string]any{})
	if resp.StatusCode != 200 {
		t.Fatalf("heal feed: %d: %s", resp.StatusCode, body)
	}
	var heal DefectsResponse
	if err := json.Unmarshal(body, &heal); err != nil {
		t.Fatal(err)
	}
	if heal.Conflicting != 0 {
		t.Errorf("heal feed conflicted: %+v", heal)
	}
}

// TestDefectFeedForLargerChip sends a feed that names a vertex on a
// cached 8-qubit schedule's path and a tile no 8-qubit grid has, as a
// feed for a larger chip would: the entry is recompiled under the part
// of the feed on its grid, not failed on the tile ApplyDefects rejects.
func TestDefectFeedForLargerChip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	parentQASM, _ := sessionCircuits(t, 8)
	resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"qasm": parentQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("cold compile: %d: %s", resp.StatusCode, body)
	}
	var cold compileResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	schd, err := hilight.DecodeScheduleJSON(cold.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	dead := schd.Layers[0][0].Path[0]

	resp, body = postJSON(t, ts.URL+"/v1/defects", map[string]any{
		"defects": map[string]any{"vertices": []int{dead}, "tiles": []int{100000}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("defect feed: %d: %s", resp.StatusCode, body)
	}
	var feed DefectsResponse
	if err := json.Unmarshal(body, &feed); err != nil {
		t.Fatal(err)
	}
	if feed.Checked != 1 || feed.Conflicting != 1 || feed.Evicted != 1 || feed.Recompiled != 1 || feed.Failed != 0 {
		t.Fatalf("feed = %+v, want 1 checked/conflicting/evicted/recompiled, 0 failed", feed)
	}
	c, err := hilight.ParseQASM("request", parentQASM)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hilight.Fingerprint(c, hilight.RectGrid(c.NumQubits),
		hilight.WithDefects(&hilight.DefectMap{Vertices: []int{dead}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := feed.Fingerprints[cold.Fingerprint]; got != want {
		t.Errorf("recompiled fingerprint = %q, want %q, the request's under the feed's part on its grid", got, want)
	}
}

// TestDefectFeedCostFollowsFeed holds a defect feed's cost to the feed,
// not to the feed times the cache: a node with 64 cached schedules
// answers an 8 MiB feed with at most 1.5× the allocation of a node with
// one.
func TestDefectFeedCostFollowsFeed(t *testing.T) {
	// As many distinct tile indices as fit in a body, all past every
	// cached grid: the feed conflicts with nothing, so the sweep is all
	// the handler does.
	var feed bytes.Buffer
	feed.WriteString(`{"defects":{"tiles":[`)
	for tile := 1_000_000; feed.Len()+len(`,1000000]}}`) <= MaxBodyBytes; tile++ {
		if tile > 1_000_000 {
			feed.WriteByte(',')
		}
		feed.WriteString(strconv.Itoa(tile))
	}
	feed.WriteString(`]}}`)

	parentQASM, _ := sessionCircuits(t, 8)
	sweep := func(entries int) uint64 {
		s, ts := newTestServer(t, Config{})
		resp, body := postJSON(t, ts.URL+"/v1/compile", map[string]any{"qasm": parentQASM})
		if resp.StatusCode != 200 {
			t.Fatalf("compile: %d: %s", resp.StatusCode, body)
		}
		sr := s.cache.Snapshot()[0]
		for i := 1; i < entries; i++ {
			s.cache.Put(fmt.Sprintf("copy-%d", i), sr)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/defects", bytes.NewReader(feed.Bytes()))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		var got DefectsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != 200 || err != nil {
			t.Fatalf("%d entries: feed answered %d: %s", entries, rec.Code, rec.Body.Bytes())
		}
		if got.Checked != entries || got.Conflicting != 0 {
			t.Fatalf("%d entries: feed = %+v, want all checked and none conflicting", entries, got)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	one, many := sweep(1), sweep(64)
	t.Logf("8 MiB feed allocated %.1f MiB over 1 cached entry, %.1f MiB over 64", float64(one)/(1<<20), float64(many)/(1<<20))
	if float64(many) > 1.5*float64(one) {
		t.Errorf("64 cached entries cost %.1f× the allocation of 1, want at most 1.5×", float64(many)/float64(one))
	}
}

func TestSessionJournalResurrection(t *testing.T) {
	dir := t.TempDir()
	parentQASM, childQASM := sessionCircuits(t, 8)

	s1, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newServerOn(t, s1)
	resp, body := postJSON(t, ts1.URL+"/v1/compile", map[string]any{"qasm": parentQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("cold: %d: %s", resp.StatusCode, body)
	}
	var cold compileResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	resp, body = postSession(t, ts1.URL+"/v1/compile", cold.Fingerprint,
		map[string]any{"qasm": childQASM})
	if resp.StatusCode != 200 {
		t.Fatalf("session: %d: %s", resp.StatusCode, body)
	}
	var warm compileResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Kill() // crash: only fsynced records survive

	// The new life replays the session record: the child fingerprint
	// resolves as a parent without any recompilation having happened.
	s2, err := New(Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newServerOn(t, s2)
	defer func() {
		ts2.Close()
		s2.Kill()
	}()
	grandchild := hilight.QFT(8)
	grandchild.Add2(hilight.CX, 0, 7)
	grandchild.Add2(hilight.CX, 1, 6)
	resp, body = postSession(t, ts2.URL+"/v1/compile", warm.Fingerprint,
		map[string]any{"qasm": hilight.FormatQASM(grandchild)})
	if resp.StatusCode != 200 {
		t.Fatalf("post-crash session against replayed child: %d: %s", resp.StatusCode, body)
	}
	var gc compileResponse
	if err := json.Unmarshal(body, &gc); err != nil {
		t.Fatal(err)
	}
	if gc.Parent != warm.Fingerprint {
		t.Errorf("grandchild parent = %q, want %q", gc.Parent, warm.Fingerprint)
	}
	if gc.WarmCycles == 0 {
		t.Error("resurrected parent produced no warm cycles")
	}
}

// newServerOn exposes an already-created Server on an httptest listener
// without the standard cleanup (resurrection tests manage lifecycle
// themselves).
func newServerOn(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}
