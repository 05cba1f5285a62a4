package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
