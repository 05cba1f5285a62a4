package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hilight"
	"hilight/internal/wire"
)

func doCompile(t *testing.T, url, accept string, body any) (*http.Response, []byte) {
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
	if accept != "" {
		req.Header.Set("Accept", accept)
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

// TestCompileBinaryNegotiation pins the Accept negotiation on
// POST /v1/compile: the binary content type answers the raw wire payload
// with the envelope metadata in headers, and the payload decodes to the
// same schedule the default JSON envelope carries.
func TestCompileBinaryNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"benchmark": "QFT-10"}

	resp, raw := doCompile(t, ts.URL+"/v1/compile", wire.Binary.ContentType(), req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.Binary.ContentType() {
		t.Fatalf("Content-Type %q, want %q", ct, wire.Binary.ContentType())
	}
	if resp.Header.Get("X-Hilight-Fingerprint") == "" {
		t.Error("binary response missing X-Hilight-Fingerprint")
	}
	if got := resp.Header.Get("X-Hilight-Cached"); got != "false" {
		t.Errorf("X-Hilight-Cached = %q on a fresh compile", got)
	}
	binSched, err := wire.Binary.Decode(raw)
	if err != nil {
		t.Fatalf("binary body undecodable: %v", err)
	}

	// The same request through the default negotiation carries the same
	// schedule as JSON — and is served from the cache the binary compile
	// just filled.
	respJ, bodyJ := doCompile(t, ts.URL+"/v1/compile", "", req)
	if respJ.StatusCode != 200 {
		t.Fatalf("json status %d: %s", respJ.StatusCode, bodyJ)
	}
	var env compileResponse
	if err := json.Unmarshal(bodyJ, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Cached {
		t.Error("JSON follow-up missed the cache entry the binary compile filled")
	}
	if len(env.ScheduleBin) != 0 {
		t.Error("default JSON response leaked schedule_bin")
	}
	// The envelope re-indents the embedded schedule, so compare through a
	// decode/re-encode normalization.
	jsonSched, err := hilight.DecodeScheduleJSON(env.Schedule)
	if err != nil {
		t.Fatalf("JSON schedule undecodable: %v", err)
	}
	want, err := hilight.EncodeScheduleJSON(binSched)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hilight.EncodeScheduleJSON(jsonSched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("binary and JSON negotiations returned different schedules")
	}

	// A binary cache hit flags itself in the header and repeats the bytes.
	resp2, raw2 := doCompile(t, ts.URL+"/v1/compile", wire.Binary.ContentType(), req)
	if resp2.StatusCode != 200 {
		t.Fatalf("binary cache-hit status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Hilight-Cached"); got != "true" {
		t.Errorf("X-Hilight-Cached = %q on a cache hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("cached binary payload differs from the compiled one")
	}
	if len(raw) >= len(env.Schedule) {
		t.Errorf("binary payload (%d B) not smaller than JSON schedule (%d B)", len(raw), len(env.Schedule))
	}
}

// TestCompileStreaming pins ?stream=1: the response is a frame stream
// that reassembles into the same schedule the JSON envelope would carry,
// with the envelope metadata in the end-frame trailer — fresh compiles
// and cache hits alike.
func TestCompileStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := map[string]any{"benchmark": "QFT-10"}

	for _, phase := range []struct {
		name   string
		cached bool
	}{{"fresh", false}, {"cache-hit", true}} {
		resp, raw := doCompile(t, ts.URL+"/v1/compile?stream=1", "", req)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", phase.name, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wire.StreamContentType {
			t.Fatalf("%s: Content-Type %q, want %q", phase.name, ct, wire.StreamContentType)
		}
		schd, meta, err := wire.ReadStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: ReadStream: %v", phase.name, err)
		}
		if schd == nil || len(schd.Layers) == 0 {
			t.Fatalf("%s: stream reassembled to an empty schedule", phase.name)
		}
		var trailer compileResponse
		if err := json.Unmarshal(meta, &trailer); err != nil {
			t.Fatalf("%s: end-frame metadata not a response envelope: %v", phase.name, err)
		}
		if trailer.Cached != phase.cached {
			t.Errorf("%s: trailer cached = %v, want %v", phase.name, trailer.Cached, phase.cached)
		}
		if trailer.Fingerprint != resp.Header.Get("X-Hilight-Fingerprint") {
			t.Errorf("%s: trailer fingerprint disagrees with header", phase.name)
		}
		if len(schd.Layers) != trailer.LatencyCycles {
			t.Errorf("%s: %d streamed layers, trailer says %d cycles", phase.name, len(schd.Layers), trailer.LatencyCycles)
		}
	}
}

// TestStreamRejectsIncompatibleOptions pins the 400s: streamed frames
// are the router's raw output, so post-routing rewrites can't stream.
func TestStreamRejectsIncompatibleOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name string
		req  map[string]any
	}{
		{"compact", map[string]any{"benchmark": "QFT-10", "compact": true}},
		{"fallback", map[string]any{"benchmark": "QFT-10", "fallback": []string{"hilight-map"}}},
	} {
		resp, body := doCompile(t, ts.URL+"/v1/compile?stream=1", "", tc.req)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "stream=1 cannot be combined") {
			t.Errorf("%s: error body does not explain the conflict: %s", tc.name, body)
		}
	}
}

// TestJobsBinaryNegotiation pins content negotiation on job polls: the
// binary Accept renders schedule_bin payloads, the default renders the
// historical inline JSON schedules, and the two agree.
func TestJobsBinaryNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"jobs": []any{map[string]any{"benchmark": "QFT-10"}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	poll := func(accept string) jobStatus {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+sub.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("poll status %d: %s", resp.StatusCode, out)
		}
		var st jobStatus
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	var jsonSt jobStatus
	for {
		jsonSt = poll("")
		if jsonSt.Status == "done" {
			break
		}
	}
	binSt := poll(wire.Binary.ContentType())
	if len(jsonSt.Results) != 1 || len(binSt.Results) != 1 {
		t.Fatalf("results: json %d, binary %d, want 1 each", len(jsonSt.Results), len(binSt.Results))
	}
	jr, br := jsonSt.Results[0].Result, binSt.Results[0].Result
	if jr == nil || br == nil {
		t.Fatalf("missing results: json %+v, binary %+v", jsonSt.Results[0], binSt.Results[0])
	}
	if len(jr.Schedule) == 0 || len(jr.ScheduleBin) != 0 {
		t.Error("default poll should carry inline JSON schedule only")
	}
	if len(br.ScheduleBin) == 0 || len(br.Schedule) != 0 {
		t.Error("binary poll should carry schedule_bin only")
	}
	schd, err := wire.Binary.Decode(br.ScheduleBin)
	if err != nil {
		t.Fatalf("schedule_bin undecodable: %v", err)
	}
	jsonSched, err := hilight.DecodeScheduleJSON(jr.Schedule)
	if err != nil {
		t.Fatalf("inline schedule undecodable: %v", err)
	}
	want, err := hilight.EncodeScheduleJSON(schd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hilight.EncodeScheduleJSON(jsonSched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("binary and JSON polls disagree on the schedule")
	}
}

// TestResultFieldOrder pins the bytes of a stored result in its three
// forms: the marshaled stored form (cache charge and journal payload),
// the JSON response and the binary-envelope response, for a result with
// every field set and one with only the required ones. The field order
// and the omitempty tags are part of every form, and no golden covers
// the metadata around a schedule.
func TestResultFieldOrder(t *testing.T) {
	c := hilight.NewCircuit("pair", 2)
	c.Add2(hilight.CX, 0, 1)
	res, err := hilight.Compile(c, hilight.NewGrid(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := hilight.EncodeScheduleBinary(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	bare := new(storedResult)
	bare.Fingerprint = "fp"
	bare.Method = "hilight"
	bare.ScheduleBin = bin
	full := new(storedResult)
	*full = *bare
	full.Degraded = true
	full.FallbackMethod = "hilight-map"
	full.LatencyCycles = 1
	full.PathLen = 2
	full.ResUtil = 0.5
	full.RuntimeNS = 1234
	full.WarmCycles = 1
	full.Parent = "parent-fp"
	full.Delta = json.RawMessage(`{"latency":0}`)
	full.Trace = []stageTrace{{Stage: "route", DurationNS: 5, Counters: map[string]int64{"searches": 1}}}
	full.ReqJSON = json.RawMessage(`{"qasm":"x"}`)

	stored := func(sr *storedResult) string {
		data, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// A response body, compacted: the indentation is under test in
	// TestJSONResponseDigests.
	body := func(sr *storedResult, binary bool) string {
		var data []byte
		if binary {
			rec := httptest.NewRecorder()
			WriteJSON(rec, http.StatusOK, sr.envelope())
			data = rec.Body.Bytes()
		} else {
			var err error
			if data, err = appendResponseJSON(nil, sr, ""); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := json.Compact(&out, data); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	const (
		meta     = `"method":"hilight","degraded":true,"fallback_method":"hilight-map","latency_cycles":1,"path_len":2,"resutil":0.5,"runtime_ns":1234,"warm_cycles":1,"parent":"parent-fp","delta":{"latency":0},"trace":[{"stage":"route","duration_ns":5,"counters":{"searches":1}}]`
		bareMeta = `"method":"hilight","latency_cycles":0,"path_len":0,"resutil":0,"runtime_ns":0`
		payload  = `"schedule_bin":"SExTAQIBAAACAQIBAQAAAAIBAg=="`
		schedule = `"schedule":{"version":1,"grid_w":2,"grid_h":1,"qubits":2,"initial":[0,1],"layers":[[{"gate":0,"ctl":0,"tgt":1,"path":[1]}]]}`
	)
	for _, tc := range []struct{ name, got, want string }{
		{"full stored", stored(full), `{"fingerprint":"fp",` + meta + `,` + payload + `,"req":{"qasm":"x"}}`},
		{"full json", body(full, false), `{"fingerprint":"fp","cached":false,` + meta + `,` + schedule + `}`},
		{"full binary", body(full, true), `{"fingerprint":"fp","cached":false,` + meta + `,` + payload + `}`},
		{"bare stored", stored(bare), `{"fingerprint":"fp",` + bareMeta + `,` + payload + `}`},
		{"bare json", body(bare, false), `{"fingerprint":"fp","cached":false,` + bareMeta + `,` + schedule + `}`},
		{"bare binary", body(bare, true), `{"fingerprint":"fp","cached":false,` + bareMeta + `,` + payload + `}`},
	} {
		if tc.got != tc.want {
			t.Errorf("%s form:\n got %s\nwant %s", tc.name, tc.got, tc.want)
		}
	}
}
