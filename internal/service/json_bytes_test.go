package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hilight"
	"hilight/internal/obs"
	"hilight/internal/wire"
)

// jsonBytesResults returns stored results with every metadata field
// fixed, around the seed-1 hilight-map schedules of QFT-16 and
// Ising-10: the first with every optional field set, the second with
// only the required ones.
func jsonBytesResults(t testing.TB) (full, bare *storedResult) {
	t.Helper()
	stored := func(name string) *storedResult {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		opts := []hilight.Option{hilight.WithMethod("hilight-map"), hilight.WithSeed(1)}
		res, err := hilight.Compile(c, g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := hilight.Fingerprint(c, g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := newStoredResult(fp, res)
		if err != nil {
			t.Fatal(err)
		}
		sr.RuntimeNS, sr.Trace = 0, nil
		return sr
	}
	full = stored("QFT-16")
	full.Degraded = true
	full.FallbackMethod = "hilight"
	full.RuntimeNS = 1234567
	full.WarmCycles = 3
	full.Parent = "parent-fp"
	full.Delta = json.RawMessage(`{"latency": 1, "note": "<&>"}`)
	full.Trace = []stageTrace{
		{Stage: "place", DurationNS: 10},
		{Stage: "route", DurationNS: 20, Counters: map[string]int64{"searches": 7, "braids": 3, "search-pops": 99}},
	}
	full.ReqJSON = json.RawMessage(`{"benchmark":"QFT-16"}`)
	bare = stored("Ising-10")
	return full, bare
}

// TestJSONResponseDigests freezes, as SHA-256 digests, the indented
// bytes of every JSON response that carries a schedule: the compile
// response, a coordinator's transcode of a worker envelope, and a done
// job poll with two results and one error. Clients, the chaos ledger
// and repeated polls compare these bytes.
func TestJSONResponseDigests(t *testing.T) {
	full, bare := jsonBytesResults(t)
	s, _ := newTestServer(t, Config{})
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	check := func(what string, body []byte, want string) {
		t.Helper()
		if got := digest(body); got != want {
			t.Errorf("%s: digest %s, want %s (%d bytes)", what, got, want, len(body))
		}
	}
	respond := func(mode respMode, sr *storedResult) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.respond(rec, mode, sr)
		if rec.Code != http.StatusOK {
			t.Fatalf("respond: %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	check("compile response, every field", respond(modeJSON, full), "d1b1c678f80041e9db57c867a68c27cdb953f5c0c212ca681f070ceddc925040")
	check("compile response, required fields", respond(modeJSON, bare), "6dc7d92eb35c07a8c22f9a150454e559579cc408b272716a303c1d8833156638")

	cached := *full
	cached.Cached = true
	body, meta, err := TranscodeEnvelope(respond(modeEnvelope, &cached))
	if err != nil {
		t.Fatal(err)
	}
	if meta != (EnvelopeMeta{Fingerprint: full.Fingerprint, Cached: true}) {
		t.Errorf("envelope meta = %+v", meta)
	}
	check("transcoded envelope", body, "03fd09f86cda634865f057248de2c2eab9e29ad04fa69d62cc0f41884c2994af")

	js := newJobStore(4, obs.NewRegistry())
	done := make(chan struct{})
	close(done)
	js.jobs["b-1"] = &batchJob{id: "b-1", count: 3, done: done, results: []jobResult{
		{Result: full},
		{Error: `invalid qasm: "q<0>" & more`},
		{Result: bare},
	}}
	req := httptest.NewRequest("GET", "/v1/jobs/b-1", nil)
	req.SetPathValue("id", "b-1")
	rec := httptest.NewRecorder()
	if !js.WriteStatus(rec, req) || rec.Code != http.StatusOK {
		t.Fatalf("poll: %d: %s", rec.Code, rec.Body.Bytes())
	}
	check("done poll", rec.Body.Bytes(), "a114a3959b526cc6ddfd1906508bbe15d98909c75fe7ea2bc1cb60abb3c2e61c")
}

// TestCorruptStoredSchedule checks the render of a stored result whose
// binary payload does not decode: a compile response is a 500 naming
// the corruption, and a done poll serves that result as its error, in
// the bytes encoding/json writes for such a poll.
func TestCorruptStoredSchedule(t *testing.T) {
	full, bare := jsonBytesResults(t)
	corrupt := *bare
	corrupt.ScheduleBin = corrupt.ScheduleBin[:len(corrupt.ScheduleBin)/2]
	_, decodeErr := wire.Binary.Decode(corrupt.ScheduleBin)
	if decodeErr == nil {
		t.Fatal("truncated payload decodes")
	}
	msg := "stored schedule corrupt: " + decodeErr.Error()

	s, _ := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.respond(rec, modeJSON, &corrupt)
	var got map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusInternalServerError || err != nil || got["error"] != msg {
		t.Errorf("compile response = %d %s, want 500 %q", rec.Code, rec.Body.Bytes(), msg)
	}

	js := newJobStore(4, obs.NewRegistry())
	done := make(chan struct{})
	close(done)
	js.jobs["b-1"] = &batchJob{id: "b-1", count: 2, done: done, results: []jobResult{{Result: &corrupt}, {Result: full}}}
	req := httptest.NewRequest("GET", "/v1/jobs/b-1", nil)
	req.SetPathValue("id", "b-1")
	rec = httptest.NewRecorder()
	js.WriteStatus(rec, req)

	schd, err := wire.Binary.Decode(full.ScheduleBin)
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := hilight.EncodeScheduleJSON(schd)
	if err != nil {
		t.Fatal(err)
	}
	want := httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, &jobStatus{ID: "b-1", Status: "done", Count: 2, Finished: 2, Results: []jobResultView{
		{Error: msg},
		{Result: &compileResponse{Fingerprint: full.Fingerprint, resultMeta: full.resultMeta, Schedule: fullJSON}},
	}})
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("poll with a corrupt result =\n%s\nwant\n%s", rec.Body.Bytes(), want.Body.Bytes())
	}
}
