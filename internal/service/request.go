package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"hilight"
	"hilight/internal/wire"
)

// compileRequest is the JSON body of POST /v1/compile and each entry of
// POST /v1/jobs. Exactly one of QASM and Benchmark selects the circuit;
// the rest mirrors the hilight.Compile option surface that participates
// in the result (and therefore in the cache fingerprint).
type compileRequest struct {
	// QASM is OpenQASM 2.0 source for the circuit.
	QASM string `json:"qasm,omitempty"`
	// Benchmark names a built-in Table 1 benchmark instead of QASM.
	Benchmark string `json:"benchmark,omitempty"`
	// Grid selects the grid; nil means the rectangular M×(M−1) grid for
	// the circuit's width.
	Grid *gridSpec `json:"grid,omitempty"`
	// Method is the mapping method ("" = "hilight"; see GET /v1/methods).
	Method string `json:"method,omitempty"`
	// Seed seeds the randomized components (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// QCO overrides the method's program-level-optimization preset.
	QCO *bool `json:"qco,omitempty"`
	// Compact enables the schedule-compaction pass.
	Compact bool `json:"compact,omitempty"`
	// Defects compiles against degraded hardware.
	Defects *hilight.DefectMap `json:"defects,omitempty"`
	// Fallback lists degradation methods tried in order when the primary
	// method cannot route.
	Fallback []string `json:"fallback,omitempty"`
	// TimeoutMS bounds the compile; 0 uses the server default, and values
	// above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips the schedule cache for this request (both lookup and
	// fill) — for benchmarking the cold path.
	NoCache bool `json:"no_cache,omitempty"`
}

// gridSpec selects the target grid.
type gridSpec struct {
	// Kind is "rect" (M×(M−1), the default) or "square" when W/H are
	// zero; ignored when explicit dimensions are given.
	Kind string `json:"kind,omitempty"`
	// W, H give explicit grid dimensions (both or neither).
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
	// FactoryW/FactoryH reserve a magic-state factory corner.
	FactoryW int `json:"factory_w,omitempty"`
	FactoryH int `json:"factory_h,omitempty"`
}

// build resolves the request into compile inputs: the parsed circuit,
// the grid, and the option list for Compile/Fingerprint. Request errors
// are returned as *apiError with a 4xx status.
func (cr *compileRequest) build() (*hilight.Circuit, *hilight.Grid, []hilight.Option, error) {
	var c *hilight.Circuit
	switch {
	case cr.QASM != "" && cr.Benchmark != "":
		return nil, nil, nil, badRequest("request has both qasm and benchmark; pick one")
	case cr.QASM != "":
		var err error
		c, err = hilight.ParseQASM("request", cr.QASM)
		if err != nil {
			return nil, nil, nil, badRequest("invalid qasm: %v", err)
		}
	case cr.Benchmark != "":
		var ok bool
		c, ok = hilight.Benchmark(cr.Benchmark)
		if !ok {
			return nil, nil, nil, badRequest("unknown benchmark %q (see /v1/benchmarks)", cr.Benchmark)
		}
	default:
		return nil, nil, nil, badRequest("request needs qasm or benchmark")
	}

	g, err := cr.buildGrid(c.NumQubits)
	if err != nil {
		return nil, nil, nil, err
	}

	known := hilight.Methods()
	opts := []hilight.Option{}
	if cr.Method != "" {
		if !slices.Contains(known, cr.Method) {
			return nil, nil, nil, badRequest("unknown method %q (see /v1/methods)", cr.Method)
		}
		opts = append(opts, hilight.WithMethod(cr.Method))
	}
	if cr.Seed != nil {
		opts = append(opts, hilight.WithSeed(*cr.Seed))
	}
	if cr.QCO != nil {
		opts = append(opts, hilight.WithQCO(*cr.QCO))
	}
	if cr.Compact {
		opts = append(opts, hilight.WithCompaction())
	}
	if !cr.Defects.Empty() {
		opts = append(opts, hilight.WithDefects(cr.Defects))
	}
	if len(cr.Fallback) > 0 {
		for _, m := range cr.Fallback {
			if !slices.Contains(known, m) {
				return nil, nil, nil, badRequest("unknown fallback method %q (see /v1/methods)", m)
			}
		}
		opts = append(opts, hilight.WithFallback(cr.Fallback...))
	}
	return c, g, opts, nil
}

func (cr *compileRequest) buildGrid(qubits int) (*hilight.Grid, error) {
	gs := cr.Grid
	if gs == nil {
		gs = &gridSpec{}
	}
	if (gs.W > 0) != (gs.H > 0) {
		return nil, badRequest("grid needs both w and h (got %dx%d)", gs.W, gs.H)
	}
	if (gs.FactoryW > 0) != (gs.FactoryH > 0) {
		return nil, badRequest("factory needs both factory_w and factory_h")
	}
	const maxDim = 1 << 11 // matches the decoder's hostile-input bound
	if gs.FactoryW > maxDim || gs.FactoryH > maxDim {
		return nil, badRequest("factory %dx%d too large (max %dx%d)", gs.FactoryW, gs.FactoryH, maxDim, maxDim)
	}
	if gs.W > 0 {
		if gs.FactoryW > 0 {
			return nil, badRequest("explicit w/h and a factory reservation are mutually exclusive; use kind with factory_w/factory_h")
		}
		if gs.W > maxDim || gs.H > maxDim {
			return nil, badRequest("grid %dx%d too large (max %dx%d)", gs.W, gs.H, maxDim, maxDim)
		}
		return hilight.NewGrid(gs.W, gs.H), nil
	}
	rect := true
	switch gs.Kind {
	case "", "rect":
	case "square":
		rect = false
	default:
		return nil, badRequest("unknown grid kind %q (rect, square)", gs.Kind)
	}
	if gs.FactoryW > 0 {
		g, err := hilight.GridWithFactory(qubits, gs.FactoryW, gs.FactoryH, rect)
		if err != nil {
			return nil, badRequest("factory: %v", err)
		}
		return g, nil
	}
	if rect {
		return hilight.RectGrid(qubits), nil
	}
	return hilight.SquareGrid(qubits), nil
}

// stageTrace is the wire form of one Result.Trace entry.
type stageTrace struct {
	Stage      string           `json:"stage"`
	DurationNS int64            `json:"duration_ns"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// compileResponse is the JSON body of a successful compile: the content
// address, the schedule, and the metrics/trace of the compile that
// produced it. Cached responses carry the original compile's runtime and
// trace with Cached set. Exactly one of Schedule and ScheduleBin is set,
// by content negotiation: the default JSON form carries the schedule
// inline, an Accept: application/x-hilight-sched request gets the binary
// wire payload (base64 in the JSON envelope) instead.
type compileResponse struct {
	Fingerprint    string  `json:"fingerprint"`
	Cached         bool    `json:"cached"`
	Method         string  `json:"method"`
	Degraded       bool    `json:"degraded,omitempty"`
	FallbackMethod string  `json:"fallback_method,omitempty"`
	LatencyCycles  int     `json:"latency_cycles"`
	PathLen        int     `json:"path_len"`
	ResUtil        float64 `json:"resutil"`
	RuntimeNS      int64   `json:"runtime_ns"`
	// WarmCycles, Parent and Delta are set on session recompiles
	// (If-Fingerprint-Match): how many parent layers were replayed
	// verbatim, the parent fingerprint, and the sched.Compare diff
	// against the parent schedule.
	WarmCycles  int             `json:"warm_cycles,omitempty"`
	Parent      string          `json:"parent,omitempty"`
	Delta       json.RawMessage `json:"delta,omitempty"`
	Trace       []stageTrace    `json:"trace,omitempty"`
	Schedule    json.RawMessage `json:"schedule,omitempty"`
	ScheduleBin []byte          `json:"schedule_bin,omitempty"`
}

// storedResult is the canonical stored form of a successful compile: the
// response metadata plus the schedule in the binary wire encoding. It is
// both the schedule cache's value and the journal's per-job completion
// payload (base64 inside the JSONL envelope), so the cache cap and the
// journal are charged the compact encoding — the HTTP layer transcodes
// to JSON on demand. Stored entries are immutable and shared; copy
// before flipping Cached.
//
// Cached and ScheduleBin are omitted from the marshaled form when zero:
// a cached entry always holds Cached false, and sizeOf charges the
// payload at its binary size, so neither may add bytes to the metadata
// an entry is charged for.
type storedResult struct {
	Fingerprint    string          `json:"fingerprint"`
	Cached         bool            `json:"cached,omitempty"`
	Method         string          `json:"method"`
	Degraded       bool            `json:"degraded,omitempty"`
	FallbackMethod string          `json:"fallback_method,omitempty"`
	LatencyCycles  int             `json:"latency_cycles"`
	PathLen        int             `json:"path_len"`
	ResUtil        float64         `json:"resutil"`
	RuntimeNS      int64           `json:"runtime_ns"`
	WarmCycles     int             `json:"warm_cycles,omitempty"`
	Parent         string          `json:"parent,omitempty"`
	Delta          json.RawMessage `json:"delta,omitempty"`
	Trace          []stageTrace    `json:"trace,omitempty"`
	ScheduleBin    []byte          `json:"schedule_bin,omitempty"`
	// ReqJSON is the canonical compile request that produced this
	// result. It makes the entry a viable session parent — building the
	// request is deterministic, so If-Fingerprint-Match reconstructs the
	// parent's input circuit from it — and lets the live defect feed
	// re-issue the request under a rewritten defect map. The input
	// circuit is deliberately not stored separately: it would double the
	// metadata footprint every entry pays toward the cache byte cap.
	ReqJSON json.RawMessage `json:"req,omitempty"`
}

// newStoredResult converts a compile result to its stored form, encoding
// the schedule with the binary codec.
func newStoredResult(fingerprint string, res *hilight.Result) (*storedResult, error) {
	bin, err := wire.Binary.Encode(res.Schedule)
	if err != nil {
		return nil, fmt.Errorf("encode schedule: %w", err)
	}
	sr := &storedResult{
		Fingerprint:    fingerprint,
		Method:         res.Method,
		Degraded:       res.Degraded,
		FallbackMethod: res.FallbackMethod,
		LatencyCycles:  res.Latency,
		PathLen:        res.PathLen,
		ResUtil:        res.ResUtil,
		RuntimeNS:      res.Runtime.Nanoseconds(),
		WarmCycles:     res.WarmCycles,
		ScheduleBin:    bin,
	}
	if res.Delta != nil {
		// The field types cannot fail to marshal.
		sr.Delta, _ = json.Marshal(res.Delta)
	}
	for _, st := range res.Trace {
		tr := stageTrace{Stage: st.Stage, DurationNS: st.Duration.Nanoseconds()}
		if len(st.Counters) > 0 {
			tr.Counters = make(map[string]int64, len(st.Counters))
			for _, c := range st.Counters {
				tr.Counters[c.Name] = c.Value
			}
		}
		sr.Trace = append(sr.Trace, tr)
	}
	return sr, nil
}

// meta returns the response envelope without a schedule payload — the
// shared first step of both content negotiations (and the streaming
// trailer's metadata frame).
func (sr *storedResult) meta() *compileResponse {
	return &compileResponse{
		Fingerprint:    sr.Fingerprint,
		Cached:         sr.Cached,
		Method:         sr.Method,
		Degraded:       sr.Degraded,
		FallbackMethod: sr.FallbackMethod,
		LatencyCycles:  sr.LatencyCycles,
		PathLen:        sr.PathLen,
		ResUtil:        sr.ResUtil,
		RuntimeNS:      sr.RuntimeNS,
		WarmCycles:     sr.WarmCycles,
		Parent:         sr.Parent,
		Delta:          sr.Delta,
		Trace:          sr.Trace,
	}
}

// response renders the stored result in the negotiated form: a binary
// form passes the stored payload through untouched, the default JSON
// form carries the schedule inline (see scheduleJSON).
func (sr *storedResult) response(binary bool) (*compileResponse, error) {
	resp := sr.meta()
	if binary {
		resp.ScheduleBin = sr.ScheduleBin
		return resp, nil
	}
	var err error
	if resp.Schedule, err = scheduleJSON(sr.ScheduleBin); err != nil {
		return nil, err
	}
	return resp, nil
}

// scheduleJSON transcodes a binary schedule payload to the canonical
// inline JSON form. Decoding and re-encoding a schedule is
// deterministic, so the bytes are stable: repeated polls of a sealed
// batch, and a coordinator's transcode of a worker envelope, match a
// single node's response byte for byte.
func scheduleJSON(bin []byte) (json.RawMessage, error) {
	s, err := wire.Binary.Decode(bin)
	if err != nil {
		return nil, fmt.Errorf("stored schedule corrupt: %w", err)
	}
	data, err := hilight.EncodeScheduleJSON(s)
	if err != nil {
		return nil, fmt.Errorf("encode schedule: %w", err)
	}
	return data, nil
}

// sizeOf is the stored result's cache footprint: the binary schedule
// payload plus the actual marshaled size of the metadata — the true
// encoded size, not an estimate, so the byte cap admits exactly as many
// entries as their encodings occupy.
func (sr *storedResult) sizeOf() int64 {
	meta := *sr
	meta.ScheduleBin = nil
	b, err := json.Marshal(&meta)
	if err != nil {
		// Unreachable for the field types involved; stay conservative.
		return int64(len(sr.ScheduleBin)) + 512
	}
	return int64(len(sr.ScheduleBin) + len(b))
}

// payloadSize is the schedule payload's share of sizeOf, metered under
// cache/encoded-bytes.
func (sr *storedResult) payloadSize() int64 { return int64(len(sr.ScheduleBin)) }

// apiError is an error with an HTTP status; handlers render it as the
// JSON error envelope.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string { return e.Message }

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: 400, Message: fmt.Sprintf(format, args...)}
}

// clampTimeout resolves a request's timeout against the server bounds.
func clampTimeout(reqMS int64, def, max time.Duration) time.Duration {
	d := def
	if reqMS > 0 {
		d = time.Duration(reqMS) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}
