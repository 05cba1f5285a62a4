package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hilight"
)

// This file is the service's edge API for the cluster coordinator: the
// pieces of the request pipeline a routing tier needs — fingerprinting
// without compiling, splitting a batch into shardable units, and
// transcoding worker envelopes back to the canonical client JSON — all
// exported through the same code paths the single-node server runs, so
// a coordinator in front of workers is byte-compatible with one node.

// Unit is one schedulable compile extracted from a request: the public
// fingerprint it shards on and a self-contained POST /v1/compile body
// that reproduces exactly that compile on any worker.
type Unit struct {
	Fingerprint string
	Body        []byte
}

// DigestCompile validates a POST /v1/compile body and returns its cache
// fingerprint without compiling. Errors are *apiError-backed: feed them
// to HTTPStatus for the status/message the single-node server would
// have answered.
func DigestCompile(body []byte) (string, error) {
	var req compileRequest
	if err := decodeStrict(body, &req); err != nil {
		return "", err
	}
	c, g, opts, err := req.build()
	if err != nil {
		return "", err
	}
	fp, err := hilight.Fingerprint(c, g, opts...)
	if err != nil {
		return "", badRequest("%v", err)
	}
	return fp, nil
}

// SplitJobs validates a POST /v1/jobs body and splits it into per-job
// units, each carrying the batch-level options inline — the expansion
// prepare() runs before CompileAll (jobsRequest.resolve), so unit
// fingerprints equal the ones a single-node ack would return.
func SplitJobs(body []byte) ([]Unit, error) {
	var req jobsRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	crs, _, fps, _, err := req.resolve()
	if err != nil {
		return nil, err
	}
	units := make([]Unit, len(crs))
	for i := range crs {
		ub, err := json.Marshal(&crs[i])
		if err != nil {
			return nil, fmt.Errorf("service: marshal unit %d: %w", i, err)
		}
		units[i] = Unit{Fingerprint: fps[i], Body: ub}
	}
	return units, nil
}

// EnvelopeMeta is the routing-relevant metadata of a transcoded
// envelope.
type EnvelopeMeta struct {
	Fingerprint string
	Cached      bool
}

// TranscodeEnvelope converts a worker's binary-envelope response
// (Accept: application/x-hilight-sched+json) into the canonical JSON
// body the single-node server writes for the same compile — the same
// structs and the same encoder settings, so the client-visible bytes
// are identical.
func TranscodeEnvelope(envelope []byte) ([]byte, EnvelopeMeta, error) {
	resp, meta, err := decodeEnvelope(envelope, false)
	if err != nil {
		return nil, EnvelopeMeta{}, err
	}
	body, err := encodeJSONBody(resp)
	if err != nil {
		return nil, EnvelopeMeta{}, err
	}
	return body, meta, nil
}

// UnitOutcome is one dispatched unit's terminal result at the
// coordinator: a worker envelope, or an error message.
type UnitOutcome struct {
	Err      string
	Envelope []byte
}

// ComposeJobStatus renders the canonical GET /v1/jobs/{id} body from
// per-unit outcomes — byte-identical to a single-node poll of the same
// batch state in the same negotiated form: binary (see AcceptsBinary)
// keeps each envelope's schedule_bin payload untouched, the default
// transcodes it to inline JSON. With done unset the outcomes are
// ignored and a running view (finished of count) is rendered.
func ComposeJobStatus(id string, count, finished int, done bool, outcomes []UnitOutcome, binary bool) ([]byte, error) {
	st := jobStatus{ID: id, Count: count, Finished: finished, Status: "running"}
	if done {
		st.Status = "done"
		st.Finished = count
		st.Results = make([]jobResultView, len(outcomes))
		for i, o := range outcomes {
			if o.Err != "" {
				st.Results[i] = jobResultView{Error: o.Err}
				continue
			}
			resp, _, err := decodeEnvelope(o.Envelope, binary)
			if err != nil {
				st.Results[i] = jobResultView{Error: err.Error()}
				continue
			}
			// Batch results never report Cached in the single-node store
			// (the flag describes the sync endpoint's cache, not worker
			// placement), so the transcode clears it for byte-identity.
			resp.Cached = false
			st.Results[i] = jobResultView{Result: resp}
		}
	}
	return encodeJSONBody(&st)
}

// ErrorBody renders the canonical JSON error envelope for msg — what
// fail() writes — so coordinator-originated errors are
// indistinguishable from worker ones.
func ErrorBody(msg string) []byte {
	b, _ := encodeJSONBody(errorBody(msg))
	return b
}

// HTTPStatus maps an edge error onto the status and message the
// single-node server would answer: *apiError carries its own status,
// anything else is a 500.
func HTTPStatus(err error) (int, string) {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status, ae.Message
	}
	return http.StatusInternalServerError, err.Error()
}

// decodeStrict mirrors decodeBody's strictness (unknown fields are
// request errors) for already-buffered bodies.
func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// decodeEnvelope parses a worker's binary-envelope body. Unless binary
// is set, it transcodes the schedule payload to the canonical inline
// JSON form.
func decodeEnvelope(envelope []byte, binary bool) (*compileResponse, EnvelopeMeta, error) {
	var resp compileResponse
	if err := json.Unmarshal(envelope, &resp); err != nil {
		return nil, EnvelopeMeta{}, fmt.Errorf("service: worker envelope: %w", err)
	}
	meta := EnvelopeMeta{Fingerprint: resp.Fingerprint, Cached: resp.Cached}
	if len(resp.ScheduleBin) == 0 {
		return nil, EnvelopeMeta{}, fmt.Errorf("service: worker envelope has no schedule payload")
	}
	if !binary {
		var err error
		if resp.Schedule, err = scheduleJSON(resp.ScheduleBin); err != nil {
			return nil, EnvelopeMeta{}, err
		}
		resp.ScheduleBin = nil
	}
	return &resp, meta, nil
}

// encodeJSONBody renders v exactly as WriteJSON does (two-space indent,
// trailing newline) without a ResponseWriter.
func encodeJSONBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
