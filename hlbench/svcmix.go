package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"hilight"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// The service-mix workload drives an in-process hilightd over loopback
// HTTP in an open loop. Every request targets one explicit grid, so the
// defect feed describes one device and its sweep compares tile ids across
// all cached entries.
const mixW, mixH = 6, 6

// mixCircuits are the Table 1 circuits of at most ~300 gates that fit the
// mix grid with room for defects; cold compiles of them take a few
// milliseconds. Larger circuits would hold the read lane for tens of
// milliseconds and make the latency tail the queue behind them.
var mixCircuits = []string{
	"4gt11_82", "4gt5_75", "alu-v0_26", "rd32_270", "QFT-10", "QFT-16",
	"BV-10", "CC-11", "CC-18", "Ising-10", "Ising-13", "Ising-16",
}

// Open-loop rates per lane, in operations per second: reads (cache hits,
// cold compiles, streams) on one connection, writes (session edits, job
// batches, defect feeds) on the other. Writes share one lane so a feed
// never evicts a session parent while an edit of it is in flight.
const (
	readRate  = 80.0
	writeRate = 16.0
)

// The mix is dealt from decks (see deck): per lane, each class in a fixed
// proportion; reads of the hot set and cold reads of every circuit ×
// method evenly; session edits evenly over the chains; feeds evenly over
// the device's defect maps. The seed decides the order, the cold compile
// seeds and the edit operands. A feed comes every 10 s, as a device's
// defects change rarely; a feed and the writes queued behind it stay
// under the top 1% of request latencies, so they do not set req_ms_p99.
var (
	readClasses  = []string{"hit-json", "hit-bin", "miss", "stream"}
	readCounts   = []int{9, 5, 3, 3}
	writeClasses = []string{"session", "jobs-submit", "defects"}
	writeCounts  = []int{128, 31, 1}
)

// sessionRoots root one session chain each: circuits of 240–310 gates,
// each under two methods. Edits of similar cost keep recompile_ms_p50
// inside one population instead of between two.
var sessionRoots = []mixSpec{
	{"QFT-16", "hilight", 2}, {"QFT-16", "hilight-map-parallel", 2},
	{"Ising-13", "hilight-map", 2}, {"Ising-13", "hilight", 2},
	{"Ising-16", "hilight-map-parallel", 2}, {"Ising-16", "hilight-map", 2},
}

const (
	jobsPerBatch = 3
	// defectMaps is how many defect maps the device cycles through, each
	// at defectRate dead components.
	defectMaps = 4
	defectRate = 0.03
	// mixCacheBytes bounds the schedule cache to roughly a hundred mix
	// entries. The cache then evicts, and a feed's sweep and the memory in
	// use stay level over a run instead of growing with its length.
	mixCacheBytes = 512 << 10
)

// mixSpec names one compile: a Table 1 circuit, a method and a seed.
type mixSpec struct {
	circuit string
	method  string
	seed    int64
}

// mixOp is one generated operation of the open loop.
type mixOp struct {
	due     time.Duration
	class   string
	spec    mixSpec // hits: the hot entry; miss, stream: a fresh seed
	chain   int     // session: which chain to edit
	q0, q1  int     // session: operands of the appended CX, reduced mod width
	jobs    []string
	method  string // jobs
	seed    int64  // jobs
	defects int    // defects: index into the map pool
}

// mixPlan is everything the seed determines: the hot set, the session
// chain roots, the device's defect maps and both lanes' operations.
type mixPlan struct {
	hot, roots    []mixSpec
	defects       []*hilight.DefectMap
	reads, writes []mixOp
}

// planMix generates the service-mix inputs for a seed: fixed-rate due
// times, classes and targets dealt from seeded decks, and a fresh compile
// seed for every cold request.
func planMix(seed int64, seconds time.Duration) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	p := mixPlan{roots: sessionRoots}
	for i, name := range mixCircuits {
		p.hot = append(p.hot, mixSpec{name, table1Methods[i%len(table1Methods)], 1})
	}
	// The device is part of the workload, not of the draw: its maps are
	// the same for every seed, so a feed's sweep does comparable work.
	g := hilight.NewGrid(mixW, mixH)
	for i := 0; i < defectMaps; i++ {
		_, dm := hilight.InjectDefects(g, defectRate, int64(i+1))
		p.defects = append(p.defects, dm)
	}
	nm := len(table1Methods)
	reads, writes := newDeck(rng, readCounts), newDeck(rng, writeCounts)
	hot, cold := uniformDeck(rng, len(p.hot)), uniformDeck(rng, len(mixCircuits)*nm)
	chains, maps := uniformDeck(rng, len(p.roots)), uniformDeck(rng, defectMaps)
	jobCircuits, jobMethods := uniformDeck(rng, len(mixCircuits)), uniformDeck(rng, nm)
	fresh := seed * 1_000_000
	nextSeed := func() int64 { fresh++; return fresh }
	at := func(i int, rate float64) time.Duration {
		return time.Duration(float64(i) / rate * float64(time.Second))
	}
	for i := 0; i < int(seconds.Seconds()*readRate); i++ {
		op := mixOp{due: at(i, readRate), class: readClasses[reads.deal()]}
		switch op.class {
		case "hit-json", "hit-bin":
			op.spec = p.hot[hot.deal()]
		default:
			k := cold.deal()
			op.spec = mixSpec{mixCircuits[k/nm], table1Methods[k%nm], nextSeed()}
		}
		p.reads = append(p.reads, op)
	}
	for i := 0; i < int(seconds.Seconds()*writeRate); i++ {
		op := mixOp{due: at(i, writeRate), class: writeClasses[writes.deal()]}
		switch op.class {
		case "session":
			op.chain = chains.deal()
			op.q0, op.q1 = rng.Intn(1<<16), rng.Intn(1<<16)
		case "jobs-submit":
			for j := 0; j < jobsPerBatch; j++ {
				op.jobs = append(op.jobs, mixCircuits[jobCircuits.deal()])
			}
			op.method = table1Methods[jobMethods.deal()]
			op.seed = nextSeed()
		case "defects":
			op.defects = maps.deal()
		}
		p.writes = append(p.writes, op)
	}
	return p
}

// target is what a received schedule must implement: an input circuit
// under a method, on the mix grid degraded by a defect map.
type target struct {
	c       *hilight.Circuit
	bench   string // the Table 1 name, when the request named one
	method  string
	defects *hilight.DefectMap
}

// received is one schedule-bearing response kept for checking after the
// measurement window, so decoding and validation never delay the loop.
type received struct {
	form   string // json, bin, stream
	body   []byte
	sched  *hilight.Schedule // stream: reassembled while reading
	meta   *compileResp      // stream trailer or parsed envelope
	qasm   string            // session: the edited circuit as sent
	tgt    target
	traced bool
	fp     string
}

// opRec is the client-side record of one operation.
type opRec struct {
	class     string
	ok        bool
	err       string
	traced    bool
	rtt       time.Duration // Σ round trips of the operation's requests
	ttfl      time.Duration // stream: due → first layer frame decoded
	ack       time.Duration // jobs: submit round trip
	batch     time.Duration // jobs: due → batch observed done
	recompile bool          // session edit served with If-Fingerprint-Match
}

// chain is one session: edits append to the head and the head moves to
// each edit's fingerprint; a defect feed may remap it.
type chain struct {
	root     mixSpec
	rootCirc *hilight.Circuit
	head     string // "" roots the chain again
	circ     *hilight.Circuit
}

type remap struct {
	body compileBody
	tgt  target
	fp   string
}

type mixState struct {
	cfg   runConfig
	plan  mixPlan
	dir   string
	srv   *service.Server
	lb    *loopback
	rec   *spanRecorder
	circs map[string]*hilight.Circuit

	// Written only by the write lane once the loop runs.
	chains  []*chain
	current *hilight.DefectMap
	known   map[string]remap // fingerprint → the request that produced it
	remaps  []remap
	warm    []received // the set-up's responses, checked with the rest
}

func specBody(s mixSpec, dm *hilight.DefectMap) []byte {
	seed := s.seed
	b, _ := json.Marshal(compileBody{Benchmark: s.circuit, Grid: &gridSpec{W: mixW, H: mixH}, Method: s.method, Seed: &seed, Defects: nonEmpty(dm)})
	return b
}

func nonEmpty(dm *hilight.DefectMap) *hilight.DefectMap {
	if dm.Empty() {
		return nil
	}
	return dm
}

func tenant(class string, traced bool) string {
	if traced {
		return class + tracedSuffix
	}
	return class
}

func setupServiceMix(cfg runConfig) (func() (*outcome, error), func(), error) {
	s := &mixState{cfg: cfg, plan: planMix(cfg.seed, cfg.seconds), circs: map[string]*hilight.Circuit{}, known: map[string]remap{}}
	for _, name := range mixCircuits {
		c, ok := hilight.Benchmark(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown benchmark %s", name)
		}
		s.circs[name] = c
	}
	dir, err := os.MkdirTemp("", "hlbench-journal-")
	if err != nil {
		return nil, nil, err
	}
	s.dir = dir
	if s.srv, err = service.New(service.Config{JournalDir: dir, MaxStoredJobs: 1024, CacheBytes: mixCacheBytes}); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	s.rec = newSpanRecorder()
	if s.lb, err = serve(s.rec.wrap(s.srv.Handler())); err != nil {
		s.close()
		return nil, nil, err
	}
	// Warm-up: fill the hot set and root every session chain.
	cl := newClient()
	defer closeClient(cl)
	for _, h := range s.plan.hot {
		r, _, err := s.post(cl, specBody(h, nil), nil)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm hot set: %w", err)
		}
		tgt := target{c: s.circs[h.circuit], method: h.method}
		s.known[r.Fingerprint] = remap{body: s.bodyOf(h), tgt: tgt}
		s.warm = append(s.warm, received{form: "json", meta: r, tgt: tgt, fp: r.Fingerprint})
	}
	for _, root := range s.plan.roots {
		r, _, err := s.post(cl, specBody(root, nil), nil)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("root session: %w", err)
		}
		c := s.circs[root.circuit]
		s.chains = append(s.chains, &chain{root: root, rootCirc: c, head: r.Fingerprint, circ: c})
		tgt := target{c: c, method: root.method}
		s.known[r.Fingerprint] = remap{body: s.bodyOf(root), tgt: tgt}
		s.warm = append(s.warm, received{form: "json", meta: r, tgt: tgt, fp: r.Fingerprint})
	}
	return s.run, s.close, nil
}

func (s *mixState) bodyOf(sp mixSpec) compileBody {
	seed := sp.seed
	return compileBody{Benchmark: sp.circuit, Grid: &gridSpec{W: mixW, H: mixH}, Method: sp.method, Seed: &seed}
}

func (s *mixState) close() {
	if s.lb != nil {
		s.lb.close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
	}
	os.RemoveAll(s.dir)
}

// post sends a JSON compile and parses the envelope.
func (s *mixState) post(cl *http.Client, body []byte, hdr map[string]string) (*compileResp, time.Duration, error) {
	rp, err := do(cl, http.MethodPost, s.lb.url+"/v1/compile", body, hdr)
	if err != nil {
		return nil, 0, err
	}
	if rp.status != http.StatusOK {
		return nil, rp.rtt, fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	var r compileResp
	if err := json.Unmarshal(rp.body, &r); err != nil {
		return nil, rp.rtt, err
	}
	return &r, rp.rtt, nil
}

func dues(ops []mixOp) []time.Duration {
	d := make([]time.Duration, len(ops))
	for i, op := range ops {
		d[i] = op.due
	}
	return d
}

func (s *mixState) run() (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	reads := make([]opRec, len(s.plan.reads))
	writes := make([]opRec, len(s.plan.writes))
	var readGot, writeGot []received
	var readT, writeT []opTiming
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := newClient()
		defer closeClient(cl)
		seen := map[string][][]byte{}
		readT = runLane(wallClock{}, start, dues(s.plan.reads), func(i int) {
			readGot = s.execRead(cl, start, i, &reads[i], readGot, seen)
		})
	}()
	go func() {
		defer wg.Done()
		cl := newClient()
		defer closeClient(cl)
		writeT = runLane(wallClock{}, start, dues(s.plan.writes), func(i int) {
			writeGot = s.execWrite(cl, start, i, &writes[i], writeGot)
		})
	}()
	wg.Wait()
	out.metrics["peak_rss_mb"] = peakRSSMB()
	return s.finish(out, append(reads, writes...), append(readT, writeT...), append(readGot, writeGot...))
}

func (s *mixState) execRead(cl *http.Client, start time.Time, i int, rec *opRec, got []received, seen map[string][][]byte) []received {
	op := s.plan.reads[i]
	rec.class = op.class
	rec.traced = s.cfg.trace && i%2 == 1
	id := "r" + strconv.Itoa(i)
	hdr := map[string]string{"X-Hilight-Tenant": tenant(op.class, rec.traced), "X-Bench-Op": id}
	tgt := target{c: s.circs[op.spec.circuit], method: op.spec.method}
	body := specBody(op.spec, nil)
	if op.class == "stream" {
		first, sch, meta, rtt, err := postStream(cl, s.lb.url, body, hdr)
		if err != nil {
			rec.err = err.Error()
			return got
		}
		rec.ok, rec.rtt, rec.ttfl = true, rtt, first.Sub(start.Add(op.due))
		return append(got, received{form: "stream", sched: sch, meta: meta, tgt: tgt, traced: rec.traced, fp: meta.Fingerprint})
	}
	form := "json"
	if op.class == "hit-bin" {
		form = "bin"
		hdr["Accept"] = wire.Binary.ContentType()
	}
	rp, err := do(cl, http.MethodPost, s.lb.url+"/v1/compile", body, hdr)
	if err != nil {
		rec.err = err.Error()
		return got
	}
	if rp.status != http.StatusOK {
		rec.err = fmt.Sprintf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		return got
	}
	rec.ok, rec.rtt = true, rp.rtt
	if op.class != "miss" {
		// Repeated hits return identical bytes; keep each distinct body once.
		key := op.class + "|" + string(body)
		for _, b := range seen[key] {
			if bytes.Equal(b, rp.body) {
				return got
			}
		}
		seen[key] = append(seen[key], rp.body)
	}
	return append(got, received{form: form, body: rp.body, tgt: tgt, traced: rec.traced, fp: rp.header.Get("X-Hilight-Fingerprint")})
}

func (s *mixState) execWrite(cl *http.Client, start time.Time, i int, rec *opRec, got []received) []received {
	op := s.plan.writes[i]
	rec.class = op.class
	// Every defect feed of a traced run is traced: a run holds only a few.
	rec.traced = s.cfg.trace && (i%2 == 1 || op.class == "defects")
	id := "w" + strconv.Itoa(i)
	hdr := map[string]string{"X-Hilight-Tenant": tenant(op.class, rec.traced), "X-Bench-Op": id}
	switch op.class {
	case "session":
		ch := s.chains[op.chain]
		if ch.head == "" {
			// A feed could not recompile this chain's head: root the chain
			// again, on the device as it is now.
			body := s.bodyOf(ch.root)
			body.Defects = nonEmpty(s.current)
			b, _ := json.Marshal(body)
			r, rtt, err := s.post(cl, b, hdr)
			if err != nil {
				rec.err = "re-root: " + err.Error()
				return got
			}
			rec.ok, rec.rtt = true, rtt
			ch.head, ch.circ = r.Fingerprint, ch.rootCirc
			tgt := target{c: ch.rootCirc, method: ch.root.method, defects: s.current}
			s.known[r.Fingerprint] = remap{body: body, tgt: tgt}
			return append(got, received{form: "json", meta: r, tgt: tgt, traced: rec.traced, fp: r.Fingerprint})
		}
		n := ch.circ.NumQubits
		q0 := op.q0 % n
		q1 := (q0 + 1 + op.q1%(n-1)) % n
		edited := hilight.NewCircuit(ch.circ.Name, n)
		edited.Append(ch.circ.Gates...)
		edited.Append(hilight.Gate{Kind: hilight.CX, Q0: q0, Q1: q1})
		seed := ch.root.seed
		cb := compileBody{QASM: hilight.FormatQASM(edited), Grid: &gridSpec{W: mixW, H: mixH},
			Method: ch.root.method, Seed: &seed, Defects: nonEmpty(s.current)}
		body, _ := json.Marshal(cb)
		hdr["If-Fingerprint-Match"] = ch.head
		rp, err := do(cl, http.MethodPost, s.lb.url+"/v1/compile", body, hdr)
		warm := true
		if err == nil && rp.status == http.StatusPreconditionFailed {
			// The parent left the bounded cache: compile the edit cold, as
			// the 412 asks, and carry the chain on from that result.
			delete(hdr, "If-Fingerprint-Match")
			first := rp.rtt
			rp, err = do(cl, http.MethodPost, s.lb.url+"/v1/compile", body, hdr)
			rp.rtt += first
			warm = false
		}
		if err != nil {
			rec.err = err.Error()
			return got
		}
		if rp.status != http.StatusOK {
			rec.err = fmt.Sprintf("session: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
			return got
		}
		var r compileResp
		if err := json.Unmarshal(rp.body, &r); err != nil {
			rec.err = err.Error()
			return got
		}
		rec.ok, rec.rtt, rec.recompile = true, rp.rtt, warm
		ch.head, ch.circ = r.Fingerprint, edited
		tgt := target{method: ch.root.method, defects: s.current}
		s.known[r.Fingerprint] = remap{body: cb, tgt: tgt}
		return append(got, received{form: "json", body: rp.body, meta: &r, qasm: cb.QASM, tgt: tgt, traced: rec.traced, fp: r.Fingerprint})

	case "jobs-submit":
		seed := op.seed
		jb := jobsBody{Method: op.method, Seed: &seed}
		for _, name := range op.jobs {
			jb.Jobs = append(jb.Jobs, jobEntry{Benchmark: name, Grid: &gridSpec{W: mixW, H: mixH}})
		}
		body, _ := json.Marshal(jb)
		rp, err := do(cl, http.MethodPost, s.lb.url+"/v1/jobs", body, hdr)
		if err != nil {
			rec.err = err.Error()
			return got
		}
		if rp.status != http.StatusAccepted {
			rec.err = fmt.Sprintf("jobs: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
			return got
		}
		rec.ack, rec.rtt = rp.rtt, rp.rtt
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rp.body, &ack); err != nil {
			rec.err = err.Error()
			return got
		}
		st, rtt, err := pollJob(cl, s.lb.url, ack.ID, map[string]string{"X-Hilight-Tenant": tenant("jobs-poll", rec.traced), "X-Bench-Op": id})
		rec.rtt += rtt
		if err != nil {
			rec.err = err.Error()
			return got
		}
		rec.ok, rec.batch = true, time.Since(start.Add(op.due))
		for j, res := range st.Results {
			if res.Result == nil {
				rec.ok, rec.err = false, "job failed: "+res.Error
				return got
			}
			got = append(got, received{form: "job", meta: res.Result, tgt: target{c: s.circs[op.jobs[j]], method: op.method}, fp: res.Result.Fingerprint})
		}
		return got

	default: // defects
		dm := s.plan.defects[op.defects]
		body, _ := json.Marshal(map[string]any{"defects": dm})
		rp, err := do(cl, http.MethodPost, s.lb.url+"/v1/defects", body, hdr)
		if err != nil {
			rec.err = err.Error()
			return got
		}
		if rp.status != http.StatusOK {
			rec.err = fmt.Sprintf("defects: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
			return got
		}
		var sweep struct {
			Fingerprints map[string]string `json:"fingerprints"`
		}
		if err := json.Unmarshal(rp.body, &sweep); err != nil {
			rec.err = err.Error()
			return got
		}
		rec.ok, rec.rtt = true, rp.rtt
		s.current = dm
		for old, nw := range sweep.Fingerprints {
			for _, ch := range s.chains {
				if ch.head == old {
					ch.head = nw
				}
			}
			if k, ok := s.known[old]; ok && nw != "" {
				k.body.Defects, k.tgt.defects = nonEmpty(dm), dm
				k.fp = nw
				s.known[nw] = k
				s.remaps = append(s.remaps, k)
			}
		}
		return got
	}
}

// pollJob polls a batch every few milliseconds until it is done.
func pollJob(cl *http.Client, url, id string, hdr map[string]string) (*jobStatus, time.Duration, error) {
	var rtt time.Duration
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		rp, err := do(cl, http.MethodGet, url+"/v1/jobs/"+id, nil, hdr)
		if err != nil {
			return nil, rtt, err
		}
		rtt += rp.rtt
		if rp.status != http.StatusOK {
			return nil, rtt, fmt.Errorf("poll %s: status %d: %s", id, rp.status, bytes.TrimSpace(rp.body))
		}
		var st jobStatus
		if err := json.Unmarshal(rp.body, &st); err != nil {
			return nil, rtt, err
		}
		if st.Status == "done" {
			if len(st.Results) != st.Count {
				return nil, rtt, fmt.Errorf("poll %s: %d results for %d jobs", id, len(st.Results), st.Count)
			}
			return &st, rtt, nil
		}
	}
	return nil, rtt, fmt.Errorf("batch %s not done after 2m", id)
}

// checker validates received schedules, caching each target's working
// circuit.
type checker struct {
	working  map[[2]any]*hilight.Circuit
	validate []float64 // ms per schedule
}

func newChecker() *checker { return &checker{working: map[[2]any]*hilight.Circuit{}} }

func (k *checker) check(s *hilight.Schedule, tgt target, w, h int) error {
	key := [2]any{tgt.c, tgt.method}
	wc, ok := k.working[key]
	if !ok {
		var err error
		if wc, err = workingCircuit(tgt.c, tgt.method); err != nil {
			return err
		}
		k.working[key] = wc
	}
	t0 := time.Now()
	err := checkSchedule(s, expect{working: wc, w: w, h: h, defects: tgt.defects})
	k.validate = append(k.validate, ms(time.Since(t0)))
	return err
}

// decode turns a received response into its envelope and schedule.
func (r *received) decode() (*compileResp, *hilight.Schedule, error) {
	switch r.form {
	case "stream":
		return r.meta, r.sched, nil
	case "bin":
		s, err := hilight.DecodeScheduleBinary(r.body)
		return nil, s, err
	case "job":
		s, err := r.meta.schedule()
		return r.meta, s, err
	}
	meta := r.meta
	if meta == nil {
		meta = &compileResp{}
		if err := json.Unmarshal(r.body, meta); err != nil {
			return nil, nil, err
		}
	}
	s, err := meta.schedule()
	return meta, s, err
}

// finish checks everything the run received, replays the traced layers
// and computes the metrics.
func (s *mixState) finish(out *outcome, recs []opRec, timings []opTiming, got []received) (*outcome, error) {
	m := out.metrics
	chk := newChecker()
	led, tab := newLedger(), newLedger()
	led.rounds, tab.rounds = 1, 1
	var depthGaps, coldMS []float64
	var pathLen, braids int64
	var hotScheds, coldScheds []*hilight.Schedule
	var inputs []compileInput
	var warm, sessLatency int
	var tracedCompile time.Duration
	for i := range got {
		r := &got[i]
		if r.qasm != "" {
			c, err := hilight.ParseQASM("request", r.qasm)
			if err != nil {
				out.fail("session qasm: %v", err)
				continue
			}
			r.tgt.c = c
		}
		meta, sch, err := r.decode()
		if err == nil {
			err = chk.check(sch, r.tgt, mixW, mixH)
		}
		if err != nil {
			out.fail("%s response %s: %v", r.form, r.fp, err)
			continue
		}
		if meta == nil || meta.Cached {
			hotScheds = append(hotScheds, sch)
			continue
		}
		if meta.WarmCycles > 0 || r.qasm != "" {
			warm += meta.WarmCycles
			sessLatency += meta.LatencyCycles
		}
		led.addCompile(time.Duration(meta.RuntimeNS), meta.passes())
		led.resutil = append(led.resutil, meta.ResUtil)
		if r.traced && r.form != "job" {
			tab.addCompile(time.Duration(meta.RuntimeNS), meta.passes())
			tracedCompile += time.Duration(meta.RuntimeNS)
		}
		if r.qasm != "" {
			continue // a session edit: warm, and its schedule is mostly its parent's
		}
		coldMS = append(coldMS, float64(meta.RuntimeNS)/1e6)
		depthGaps = append(depthGaps, gapOf(sch.Latency(), depthBound(r.tgt.c)))
		pathLen += int64(sch.TotalPathLength())
		braids += int64(sch.BraidCount())
		if len(coldScheds) < 30 {
			coldScheds = append(coldScheds, sch)
		}
		if len(inputs) < 12 {
			inputs = append(inputs, compileInput{c: r.tgt.c, g: hilight.NewGrid(mixW, mixH),
				opts: []hilight.Option{hilight.WithMethod(r.tgt.method), hilight.WithSeed(1)}})
		}
	}
	for _, r := range s.warm {
		out.attempted++
		_, sch, err := r.decode()
		if err == nil {
			err = chk.check(sch, r.tgt, mixW, mixH)
		}
		if err != nil {
			out.fail("warm-up response %s: %v", r.fp, err)
		}
	}
	s.checkForms(out, chk)
	s.checkRemaps(out, chk)

	var lat, ttfl, recompile, batch, acks, lateness, tracedLat, untracedLat, transport []float64
	var first, last time.Time
	var ok int
	var e2e, queued, rttSum, handlerSum time.Duration
	byClass := map[string][]float64{} // request ms
	for i, r := range recs {
		t := timings[i]
		out.attempted++
		if !r.ok {
			out.fail("%s: %s", r.class, r.err)
			continue
		}
		ok++
		if first.IsZero() || t.due.Before(first) {
			first = t.due
		}
		if t.done.After(last) {
			last = t.done
		}
		l := ms(t.latency())
		if r.class == "jobs-submit" {
			l = ms(t.sent.Sub(t.due) + r.ack)
			acks = append(acks, ms(r.ack))
			batch = append(batch, r.batch.Seconds())
		}
		lat = append(lat, l)
		byClass[r.class] = append(byClass[r.class], l)
		lateness = append(lateness, ms(t.lateness()))
		if r.class == "stream" {
			ttfl = append(ttfl, ms(r.ttfl))
		}
		if r.recompile {
			recompile = append(recompile, l)
		}
		if !s.cfg.trace {
			continue
		}
		if !r.traced {
			untracedLat = append(untracedLat, l)
			continue
		}
		tracedLat = append(tracedLat, l)
		if r.class == "jobs-submit" {
			continue // its polls sleep between requests: harness time, no layer's
		}
		id := "r" + strconv.Itoa(i)
		if i >= len(s.plan.reads) {
			id = "w" + strconv.Itoa(i-len(s.plan.reads))
		}
		h := s.rec.op(id)
		e2e += t.latency()
		queued += t.lateness()
		rttSum += r.rtt
		handlerSum += h
		transport = append(transport, ms(r.rtt-h))
	}
	if !s.cfg.trace {
		m["suite_s"] = last.Sub(first).Seconds()
		m["compile_ms_geomean"] = geomean(coldMS)
		m["depth_gap_geomean"] = geomean(depthGaps)
		m["braid_len_mean"] = ratio(float64(pathLen), float64(braids))
		m["req_ms_p50"] = percentile(lat, 50)
		m["req_ms_p99"] = percentile(lat, 99)
		m["ttfl_ms_p50"] = median(ttfl)
		m["recompile_ms_p50"] = median(recompile)
		m["batch_s_p50"] = median(batch)
		m["units_per_s"] = ratio(float64(ok), last.Sub(first).Seconds())
		return out, nil
	}

	led.metrics(m)
	fmt.Println("service-mix request latency by class (ms, from due time):")
	for _, c := range append(readClasses, writeClasses...) {
		xs := byClass[c]
		fmt.Printf("  %-12s n=%-5d p50=%9.3f p99=%9.3f max=%9.3f\n", c, len(xs), percentile(xs, 50), percentile(xs, 99), percentile(xs, 100))
	}
	snap := s.srv.Metrics().Snapshot()
	counter := func(name string) float64 { v, _ := snap.Counter(name); return float64(v) }
	for _, c := range handlerClasses {
		m["service.handler_ms_p50."+c] = median(s.rec.class(c))
	}
	m["http.transport_ms_p50"] = median(transport)
	m["service.cache_hit_ratio"] = ratio(counter("cache/hits"), counter("cache/hits")+counter("cache/misses"))
	m["service.cache_evictions"] = counter("cache/evictions")
	m["service.rejected_429"] = counter("service/rejected")
	m["service.journal_fsyncs"] = counter("journal/fsyncs")
	m["service.jobs_ack_ms_p50"] = median(acks)
	m["service.defects_evicted"] = counter("service/defect-evictions")
	m["service.defects_recompiled"] = counter("service/defect-recompiles")
	m["session.warm_share"] = ratio(float64(warm), float64(sessLatency))
	m["session.cold_fallbacks"] = counter("service/session-cold-fallbacks")
	m["sched.validate_ms"] = mean(chk.validate)
	m["harness.gen_lag_ms_p99"] = percentile(lateness, 99)
	m["harness.trace_overhead"] = ratio(median(tracedLat), median(untracedLat))
	if err := replayCompiler(inputs, m); err != nil {
		return nil, err
	}
	if err := replayWire(append(hotScheds[:min(len(hotScheds), 30):min(len(hotScheds), 30)], coldScheds...), m); err != nil {
		return nil, err
	}
	ps, err := parScaling()
	if err != nil {
		out.fail("route scaling: %v", err)
	}
	m["route.par_scaling"] = ps
	rows := []layerRow{
		{"open-loop queue (sent late)", queued},
		{"http transport", rttSum - handlerSum},
		{"service handler (self)", handlerSum - tracedCompile},
	}
	m["harness.residual_share"] = printLayers(os.Stdout, "service-mix (traced operations)", e2e, append(rows, tab.compileRows()...))
	return out, nil
}

// checkForms fetches every hot entry as JSON, binary and a stream, checks
// the three decode to the same schedule and that it is valid.
func (s *mixState) checkForms(out *outcome, chk *checker) {
	cl := newClient()
	defer closeClient(cl)
	for _, h := range s.plan.hot {
		body := specBody(h, nil)
		tgt := target{c: s.circs[h.circuit], method: h.method}
		out.attempted++
		js, _, err := s.post(cl, body, nil)
		var a, b, c *hilight.Schedule
		if err == nil {
			a, err = js.schedule()
		}
		if err == nil {
			var rp reply
			rp, err = do(cl, http.MethodPost, s.lb.url+"/v1/compile", body, map[string]string{"Accept": wire.Binary.ContentType()})
			if err == nil && rp.status != http.StatusOK {
				err = fmt.Errorf("binary: status %d", rp.status)
			}
			if err == nil {
				b, err = hilight.DecodeScheduleBinary(rp.body)
			}
		}
		if err == nil {
			_, c, _, _, err = postStream(cl, s.lb.url, body, nil)
		}
		if err == nil {
			err = chk.check(a, tgt, mixW, mixH)
		}
		if err == nil {
			err = sameForms(a, b, c)
		}
		if err != nil {
			out.fail("forms of %v: %v", h, err)
		}
	}
}

// sameForms checks that the JSON, binary and streamed forms of one
// fingerprint are the same schedule.
func sameForms(js, bin, stream *hilight.Schedule) error {
	for _, o := range []struct {
		name string
		s    *hilight.Schedule
	}{{"binary", bin}, {"stream", stream}} {
		same, err := sameSchedule(js, o.s)
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("%s form differs from the JSON form", o.name)
		}
	}
	return nil
}

// checkRemaps re-requests entries a defect feed recompiled, under the
// feed's map: the fingerprint must be the one the feed announced and the
// schedule valid on the degraded device.
func (s *mixState) checkRemaps(out *outcome, chk *checker) {
	cl := newClient()
	defer closeClient(cl)
	start := max(0, len(s.remaps)-20)
	for _, rm := range s.remaps[start:] {
		out.attempted++
		body, _ := json.Marshal(rm.body)
		r, _, err := s.post(cl, body, nil)
		var sch *hilight.Schedule
		if err == nil && r.Fingerprint != rm.fp {
			err = fmt.Errorf("fingerprint %s, feed announced %s", r.Fingerprint, rm.fp)
		}
		if err == nil {
			sch, err = r.schedule()
		}
		tgt := rm.tgt
		if err == nil && tgt.c == nil {
			tgt.c, err = hilight.ParseQASM("request", rm.body.QASM)
		}
		if err == nil {
			err = chk.check(sch, tgt, mixW, mixH)
		}
		if err != nil {
			out.fail("post-feed recompile: %v", err)
		}
	}
}
