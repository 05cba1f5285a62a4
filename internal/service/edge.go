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
// without compiling and transcoding worker envelopes back to the
// canonical client JSON — all exported through the same code paths the
// single-node server runs, so a coordinator in front of workers is
// byte-compatible with one node. Its async batches run through the
// single node's job store (OpenJobStore).

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

// EnvelopeMeta is the routing-relevant metadata of a transcoded
// envelope.
type EnvelopeMeta struct {
	Fingerprint string
	Cached      bool
}

// TranscodeEnvelope converts a worker's binary-envelope response
// (Accept: application/x-hilight-sched+json) into the canonical JSON
// body the single-node server writes for the same compile: it renders
// through the server's own appendResponseJSON, so the client-visible
// bytes are identical.
func TranscodeEnvelope(envelope []byte) ([]byte, EnvelopeMeta, error) {
	sr, err := decodeStored(envelope)
	if err != nil {
		return nil, EnvelopeMeta{}, err
	}
	body, err := appendResponseJSON(nil, sr, "")
	if err != nil {
		return nil, EnvelopeMeta{}, err
	}
	return append(body, '\n'), EnvelopeMeta{Fingerprint: sr.Fingerprint, Cached: sr.Cached}, nil
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

// decodeStored parses a worker's binary-envelope body into the stored
// form of its result.
func decodeStored(envelope []byte) (*storedResult, error) {
	var sr storedResult
	if err := json.Unmarshal(envelope, &sr); err != nil {
		return nil, fmt.Errorf("service: worker envelope: %w", err)
	}
	if len(sr.ScheduleBin) == 0 {
		return nil, fmt.Errorf("service: worker envelope has no schedule payload")
	}
	return &sr, nil
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
