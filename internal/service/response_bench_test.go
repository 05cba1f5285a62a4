package service

import (
	"net/http/httptest"
	"testing"

	"hilight"
	"hilight/internal/obs"
)

// BenchmarkJSONResponse times the render of every JSON response that
// carries a schedule, from the stored binary form: a compile response
// (a cache hit's whole cost past the fingerprint), a coordinator's
// transcode of a worker envelope, and a done poll of cluster-batch's
// unit mix. Every schedule is a seed-1 hilight-map compile.
func BenchmarkJSONResponse(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Kill()
	stored := map[string]*storedResult{}
	for _, name := range []string{"sqrt8_260", "QAOA-100", "QFT-100", "QFT-16"} {
		c, ok := hilight.Benchmark(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		res, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits), hilight.WithMethod("hilight-map"), hilight.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		if stored[name], err = newStoredResult("fp-"+name, res); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"QFT-16", "QFT-100"} {
		sr := stored[name]
		b.Run("compile/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.respond(httptest.NewRecorder(), modeJSON, sr)
			}
		})
		rec := httptest.NewRecorder()
		s.respond(rec, modeEnvelope, sr)
		envelope := rec.Body.Bytes()
		b.Run("transcode/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := TranscodeEnvelope(envelope); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	js := newJobStore(1, obs.NewRegistry())
	done := make(chan struct{})
	close(done)
	j := &batchJob{id: "b-1", count: 4, done: done}
	for _, name := range []string{"sqrt8_260", "QAOA-100", "QFT-100", "QFT-16"} {
		j.results = append(j.results, jobResult{Result: stored[name]})
	}
	js.jobs[j.id] = j
	req := httptest.NewRequest("GET", "/v1/jobs/b-1", nil)
	req.SetPathValue("id", j.id)
	b.Run("poll/unit-mix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			js.WriteStatus(httptest.NewRecorder(), req)
		}
	})
}
