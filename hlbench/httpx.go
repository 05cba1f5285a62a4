package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hilight"
	"hilight/internal/wire"
)

// tracedSuffix marks a traced operation in its tenant label. The label
// (the operation's traffic class) is one of the headers the coordinator
// relays to workers, so a worker can tell traced operations apart too.
const tracedSuffix = "/t"

// spanRecorder wraps a program handler and records the time spent inside
// it for traced requests: per operation id (X-Bench-Op) and per class.
type spanRecorder struct {
	mu       sync.Mutex
	byOp     map[string]time.Duration
	byClass  map[string][]float64 // handler ms
	compiles atomic.Int64         // POST /v1/compile requests, traced or not
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{byOp: map[string]time.Duration{}, byClass: map[string][]float64{}}
}

func (r *spanRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/compile" {
			r.compiles.Add(1)
		}
		class, traced := strings.CutSuffix(req.Header.Get("X-Hilight-Tenant"), tracedSuffix)
		if !traced {
			h.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		r.mu.Lock()
		if id := req.Header.Get("X-Bench-Op"); id != "" {
			r.byOp[id] += d
		}
		r.byClass[class] = append(r.byClass[class], ms(d))
		r.mu.Unlock()
	})
}

func (r *spanRecorder) op(id string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byOp[id]
}

func (r *spanRecorder) class(c string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.byClass[c]...)
}

// loopback serves a handler on a 127.0.0.1 port until close.
type loopback struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close stops the listener, waits for in-flight requests, and returns
// once the serving goroutine has exited.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		_ = l.hs.Close()
	}
	<-l.done
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// reply is one completed HTTP exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
	rtt    time.Duration
}

// do sends one request and reads the whole response.
func do(cl *http.Client, method, url string, body []byte, hdr map[string]string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: b, rtt: time.Since(t0)}, nil
}

// gridSpec and compileBody mirror the hilightd request schema.
type gridSpec struct {
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
}

type compileBody struct {
	QASM      string             `json:"qasm,omitempty"`
	Benchmark string             `json:"benchmark,omitempty"`
	Grid      *gridSpec          `json:"grid,omitempty"`
	Method    string             `json:"method,omitempty"`
	Seed      *int64             `json:"seed,omitempty"`
	Defects   *hilight.DefectMap `json:"defects,omitempty"`
}

type jobEntry struct {
	Benchmark string    `json:"benchmark"`
	Grid      *gridSpec `json:"grid,omitempty"`
}

type jobsBody struct {
	Jobs   []jobEntry `json:"jobs"`
	Method string     `json:"method,omitempty"`
	Seed   *int64     `json:"seed,omitempty"`
}

// compileResp is the hilightd compile response envelope.
type compileResp struct {
	Fingerprint   string  `json:"fingerprint"`
	Cached        bool    `json:"cached"`
	Method        string  `json:"method"`
	LatencyCycles int     `json:"latency_cycles"`
	PathLen       int     `json:"path_len"`
	ResUtil       float64 `json:"resutil"`
	RuntimeNS     int64   `json:"runtime_ns"`
	WarmCycles    int     `json:"warm_cycles"`
	Parent        string  `json:"parent"`
	Trace         []struct {
		Stage      string           `json:"stage"`
		DurationNS int64            `json:"duration_ns"`
		Counters   map[string]int64 `json:"counters"`
	} `json:"trace"`
	Schedule    json.RawMessage `json:"schedule"`
	ScheduleBin []byte          `json:"schedule_bin"`
}

func (r *compileResp) passes() []passRec {
	out := make([]passRec, len(r.Trace))
	for i, t := range r.Trace {
		out[i] = passRec{stage: t.Stage, dur: time.Duration(t.DurationNS), counters: t.Counters}
	}
	return out
}

// schedule decodes the envelope's schedule, inline JSON or binary.
func (r *compileResp) schedule() (*hilight.Schedule, error) {
	if len(r.ScheduleBin) > 0 {
		return hilight.DecodeScheduleBinary(r.ScheduleBin)
	}
	if len(r.Schedule) == 0 {
		return nil, errors.New("response carries no schedule")
	}
	return hilight.DecodeScheduleJSON(r.Schedule)
}

type jobStatus struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Count   int    `json:"count"`
	Results []struct {
		Error  string       `json:"error"`
		Result *compileResp `json:"result"`
	} `json:"results"`
}

// readStream consumes a ?stream=1 layer stream: it returns when the first
// layer frame had been decoded, the reassembled schedule and the
// trailer's metadata.
func readStream(body io.Reader) (time.Time, *hilight.Schedule, *compileResp, error) {
	dec := wire.NewStreamDecoder(body)
	var first time.Time
	var s *hilight.Schedule
	for {
		f, err := dec.Next()
		if err != nil {
			return first, nil, nil, err
		}
		switch f.Kind {
		case wire.FrameGrid:
			if s, err = wire.DecodeGridFrame(f.Payload); err != nil {
				return first, nil, nil, err
			}
		case wire.FrameLayer:
			if s == nil {
				return first, nil, nil, errors.New("layer frame before grid frame")
			}
			layer, err := wire.DecodeLayerFrame(f.Payload)
			if err != nil {
				return first, nil, nil, err
			}
			if first.IsZero() {
				first = time.Now()
			}
			s.Layers = append(s.Layers, layer)
		case wire.FrameEnd:
			var meta compileResp
			if err := json.Unmarshal(f.Payload, &meta); err != nil {
				return first, nil, nil, fmt.Errorf("stream trailer: %w", err)
			}
			if s == nil {
				return first, nil, nil, errors.New("stream ended before its grid frame")
			}
			return first, s, &meta, nil
		case wire.FrameError:
			return first, nil, nil, fmt.Errorf("stream aborted: %s", f.Payload)
		}
	}
}

// postStream sends a ?stream=1 compile and consumes the stream.
func postStream(cl *http.Client, url string, body []byte, hdr map[string]string) (time.Time, *hilight.Schedule, *compileResp, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compile?stream=1", bytes.NewReader(body))
	if err != nil {
		return time.Time{}, nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		return time.Time{}, nil, nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return time.Time{}, nil, nil, 0, fmt.Errorf("stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	first, s, meta, err := readStream(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return first, s, meta, time.Since(t0), err
}
