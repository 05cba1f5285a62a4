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
	"hilight/internal/cluster"
	"hilight/internal/obs"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// clusterSlots are the four slots of every async batch. Each slot deals
// its unit from its own deck over Table 1 circuits of similar cost, so
// every batch has the same cost profile whatever the seed. Compiled alone
// on a 2-vCPU Intel Xeon VM, the cheap units take ~0.4–2 ms, the mid
// units ~2–15 ms, QFT-100 ~30 ms (the batch's longest unit) and the probe
// units ~0.1–0.4 ms, depending on the method. The
// round's repeats and session edit all target the probe, so their
// latencies sit in one population instead of between several.
var clusterSlots = [][]string{
	{"sqrt8_260", "squar5_261", "BV-100", "CC-100"},
	{"square_root_7", "BWT-126", "QAOA-100", "urf2_277"},
	{"QFT-100"},
	probeUnits,
}

// probeUnits are circuits of 240–310 gates whose QASM form parses back,
// as session edits need. (FormatQASM prints the smallest rotation angles
// of QFT-100 and larger as Inf, which ParseQASM rejects.)
var probeUnits = []string{"QFT-16", "Ising-13", "Ising-16"}

const (
	clusterClients = 2
	// clusterCacheBytes holds a few dozen units per worker, so worker
	// caches evict and memory stays level over a run; repeats follow
	// their batch at once and still hit.
	clusterCacheBytes = 4 << 20
)

// clusterState is a coordinator over two in-process workers, each behind
// the benchmark's own loopback server so its handler can be timed.
type clusterState struct {
	cfg      runConfig
	circs    map[string]*hilight.Circuit
	workers  []*service.Server
	wlbs     []*loopback
	wrecs    []*spanRecorder
	coord    *cluster.Coordinator
	creg     *obs.Registry
	clb      *loopback
	crec     *spanRecorder
	stopOnce sync.Once

	mu    sync.Mutex
	tally tally
}

func setupClusterBatch(cfg runConfig) (func() (*outcome, error), func(), error) {
	s := &clusterState{cfg: cfg, circs: map[string]*hilight.Circuit{},
		crec: newSpanRecorder(), creg: obs.NewRegistry(),
		tally: tally{chk: newChecker(), led: newLedger(), tab: newLedger()}}
	for _, slot := range clusterSlots {
		for _, name := range slot {
			c, ok := hilight.Benchmark(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown benchmark %s", name)
			}
			s.circs[name] = c
		}
	}
	for _, name := range probeUnits {
		if _, err := hilight.ParseQASM(name, hilight.FormatQASM(s.circs[name])); err != nil {
			return nil, nil, fmt.Errorf("probe unit %s: QASM does not parse back: %w", name, err)
		}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := service.New(service.Config{NodeID: "w" + strconv.Itoa(i), CacheBytes: clusterCacheBytes})
		if err != nil {
			s.close()
			return nil, nil, err
		}
		rec := newSpanRecorder()
		lb, err := serve(rec.wrap(srv.Handler()))
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.workers, s.wlbs, s.wrecs = append(s.workers, srv), append(s.wlbs, lb), append(s.wrecs, rec)
		urls = append(urls, lb.url)
	}
	coord, err := cluster.New(cluster.Config{Workers: urls, Metrics: s.creg})
	if err != nil {
		s.close()
		return nil, nil, err
	}
	s.coord = coord
	if s.clb, err = serve(s.crec.wrap(coord.Handler())); err != nil {
		s.close()
		return nil, nil, err
	}
	// Warm-up: one compile through the coordinator on each worker's path.
	cl := newClient()
	defer closeClient(cl)
	for i, name := range []string{"QFT-16", "Ising-16"} {
		seed := int64(i + 1)
		body, _ := json.Marshal(compileBody{Benchmark: name, Seed: &seed})
		rp, err := do(cl, http.MethodPost, s.clb.url+"/v1/compile", body, nil)
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		}
		if err == nil {
			r := received{form: "json", body: rp.body, tgt: target{c: s.circs[name], method: "hilight"}}
			var sch *hilight.Schedule
			if _, sch, err = r.decode(); err == nil {
				g := hilight.RectGrid(r.tgt.c.NumQubits)
				err = s.tally.chk.check(sch, r.tgt, g.W, g.H)
			}
		}
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s.run, s.close, nil
}

func (s *clusterState) close() {
	s.stopOnce.Do(func() {
		if s.clb != nil {
			s.clb.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if s.coord != nil {
			_ = s.coord.Shutdown(ctx)
		}
		for _, lb := range s.wlbs {
			lb.close()
		}
		for _, w := range s.workers {
			_ = w.Shutdown(ctx)
		}
	})
}

// clusterOp is the client record of one request (or, for a batch, the
// submit plus its polls).
type clusterOp struct {
	class  string
	id     string
	traced bool
	ok     bool
	err    string
	lat    time.Duration // send → complete (jobs: the submit only)
	rtt    time.Duration
	gap    time.Duration // harness time since the client's previous request
	ttfl   time.Duration
	batch  time.Duration
}

// clientLog is the request record of one closed-loop client.
type clientLog struct {
	ops    []clusterOp
	rounds []float64     // round wall seconds, checking excluded
	units  int           // batch units completed
	busy   time.Duration // the client's time outside checking
}

// tally is what checking the clients' schedules leaves for the metrics.
// Schedules are checked after each round and only this summary is kept,
// so memory does not grow with the run.
type tally struct {
	chk             *checker
	fails           []string
	led, tab        *ledger // every cold compile; traced session recompiles
	depthGaps       []float64
	coldMS          []float64 // batch units' compile runtimes
	pathLen, braids int64
	tracedSession   time.Duration
	warmCycles      int                 // Σ over session edits
	sessionLatency  int                 // Σ latency cycles of session edits
	coldFallbacks   int                 // session edits recompiled without a warm prefix
	scheds          []*hilight.Schedule // first cold schedules, for the wire replay
	inputs          []compileInput
	unitBodies      [][]byte
}

func (s *clusterState) run() (*outcome, error) {
	logs := make([]clientLog, clusterClients)
	start := time.Now()
	deadline := start.Add(s.cfg.seconds)
	var wg sync.WaitGroup
	for k := 0; k < clusterClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.cfg.seed*clusterClients + int64(k)))
			cc := &clusterClient{s: s, k: k, cl: newClient(), lg: &logs[k], rng: rng,
				probe: uniformDeck(rng, len(probeUnits)*len(table1Methods))}
			for _, slot := range clusterSlots[:len(clusterSlots)-1] {
				cc.slots = append(cc.slots, uniformDeck(rng, len(slot)))
			}
			defer closeClient(cc.cl)
			cc.loop(deadline)
		}(k)
	}
	wg.Wait()
	rss := peakRSSMB()
	out, err := s.finish(logs)
	if err == nil && !s.cfg.trace {
		out.metrics["peak_rss_mb"] = rss
	}
	return out, err
}

// clusterClient is one closed-loop client of the coordinator.
type clusterClient struct {
	s       *clusterState
	k       int
	cl      *http.Client
	rng     *rand.Rand
	slots   []*deck // into clusterSlots but the probe slot
	probe   *deck   // into probeUnits × table1Methods: the probe and the round's method
	lg      *clientLog
	nop     int
	prevEnd time.Time
}

func (c *clusterClient) newOp(class string, traced bool) clusterOp {
	c.nop++
	return clusterOp{class: class, id: fmt.Sprintf("c%d-%d", c.k, c.nop), traced: traced, gap: time.Since(c.prevEnd)}
}

// loop runs rounds until the deadline (at least one), checking each
// round's schedules between rounds; checking is the client's think time.
func (c *clusterClient) loop(deadline time.Time) {
	start := time.Now()
	c.prevEnd = start
	var checking time.Duration
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		r0 := time.Now()
		got := c.round(round)
		c.lg.rounds = append(c.lg.rounds, time.Since(r0).Seconds())
		c0 := time.Now()
		c.s.checkRound(got)
		checking += time.Since(c0)
		c.prevEnd = time.Now()
	}
	c.lg.busy = time.Since(start) - checking
}

// round is an async batch of seeded units, one per slot, polled to
// completion; repeat compiles of its probe unit (JSON, binary and a
// stream, which should hit through fingerprint affinity); and one session
// edit of the probe. It returns every schedule-bearing response, batch
// results first.
func (c *clusterClient) round(round int) []received {
	s, lg, rng := c.s, c.lg, c.rng
	url := s.clb.url
	traced := s.cfg.trace && round%2 == 1
	card := c.probe.deal()
	method := table1Methods[card%len(table1Methods)]
	seed := 1_000_000*(s.cfg.seed*clusterClients+int64(c.k)) + int64(round)
	jb := jobsBody{Method: method, Seed: &seed}
	var names []string
	for i, d := range c.slots {
		names = append(names, clusterSlots[i][d.deal()])
	}
	names = append(names, probeUnits[card/len(table1Methods)])
	probe := len(names) - 1
	for _, name := range names {
		jb.Jobs = append(jb.Jobs, jobEntry{Benchmark: name})
	}
	body, _ := json.Marshal(jb)
	var got []received

	op := c.newOp("jobs-submit", traced)
	hdr := map[string]string{"X-Hilight-Tenant": tenant("jobs-submit", traced), "X-Bench-Op": op.id}
	t0 := time.Now()
	rp, err := do(c.cl, http.MethodPost, url+"/v1/jobs", body, hdr)
	op.lat, op.rtt = time.Since(t0), rp.rtt
	var ack struct {
		ID string `json:"id"`
	}
	if err == nil && rp.status != http.StatusAccepted {
		err = fmt.Errorf("jobs: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	if err == nil {
		err = json.Unmarshal(rp.body, &ack)
	}
	var st *jobStatus
	if err == nil {
		var rtt time.Duration
		st, rtt, err = pollJob(c.cl, url, ack.ID, map[string]string{"X-Hilight-Tenant": tenant("jobs-poll", traced), "X-Bench-Op": op.id})
		op.rtt += rtt
		op.batch = time.Since(t0)
	}
	fps := make([]string, len(names))
	if err == nil {
		for j, res := range st.Results {
			if res.Result == nil {
				err = fmt.Errorf("unit %s failed: %s", names[j], res.Error)
				break
			}
			fps[j] = res.Result.Fingerprint
			got = append(got, received{form: "job", meta: res.Result,
				tgt: target{c: s.circs[names[j]], bench: names[j], method: method}, fp: fps[j], traced: traced})
		}
	}
	c.prevEnd = time.Now()
	if err != nil {
		op.err = err.Error()
		lg.ops = append(lg.ops, op)
		return got
	}
	op.ok = true
	lg.units += len(st.Results)
	lg.ops = append(lg.ops, op)

	// Repeats of the probe unit: two JSON, one binary, one stream.
	ub, _ := json.Marshal(compileBody{Benchmark: names[probe], Method: method, Seed: &seed})
	tgt := target{c: s.circs[names[probe]], method: method}
	for _, class := range []string{"hit-json", "hit-json", "hit-bin", "stream"} {
		op := c.newOp(class, traced)
		hdr := map[string]string{"X-Hilight-Tenant": tenant(class, traced), "X-Bench-Op": op.id}
		t0 := time.Now()
		if class == "stream" {
			first, sch, meta, rtt, err := postStream(c.cl, url, ub, hdr)
			op.lat, op.rtt = time.Since(t0), rtt
			if err != nil {
				op.err = err.Error()
			} else {
				op.ok, op.ttfl = true, first.Sub(t0)
				got = append(got, received{form: "stream", sched: sch, meta: meta, tgt: tgt, fp: meta.Fingerprint})
			}
		} else {
			form := "json"
			if class == "hit-bin" {
				form = "bin"
				hdr["Accept"] = wire.Binary.ContentType()
			}
			rp, err := do(c.cl, http.MethodPost, url+"/v1/compile", ub, hdr)
			op.lat, op.rtt = time.Since(t0), rp.rtt
			if err == nil && rp.status != http.StatusOK {
				err = fmt.Errorf("%s: status %d: %s", class, rp.status, bytes.TrimSpace(rp.body))
			}
			if err != nil {
				op.err = err.Error()
			} else {
				op.ok = true
				got = append(got, received{form: form, body: rp.body, tgt: tgt, fp: fps[probe]})
			}
		}
		c.prevEnd = time.Now()
		lg.ops = append(lg.ops, op)
	}

	// A session edit of the probe, routed on its parent's fingerprint to
	// the worker that holds it.
	src := s.circs[names[probe]]
	q0 := rng.Intn(src.NumQubits)
	q1 := (q0 + 1 + rng.Intn(src.NumQubits-1)) % src.NumQubits
	edited := hilight.NewCircuit(src.Name, src.NumQubits)
	edited.Append(src.Gates...)
	edited.Append(hilight.Gate{Kind: hilight.CX, Q0: q0, Q1: q1})
	qasm := hilight.FormatQASM(edited)
	sb, _ := json.Marshal(compileBody{QASM: qasm, Method: method, Seed: &seed})
	op = c.newOp("session", traced)
	hdr = map[string]string{"X-Hilight-Tenant": tenant("session", traced), "X-Bench-Op": op.id, "If-Fingerprint-Match": fps[probe]}
	t0 = time.Now()
	rp, err = do(c.cl, http.MethodPost, url+"/v1/compile", sb, hdr)
	op.lat, op.rtt = time.Since(t0), rp.rtt
	if err == nil && rp.status != http.StatusOK {
		err = fmt.Errorf("session: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	if err != nil {
		op.err = err.Error()
	} else {
		op.ok = true
		got = append(got, received{form: "json", body: rp.body, qasm: qasm, tgt: target{method: method}, traced: traced})
	}
	c.prevEnd = time.Now()
	lg.ops = append(lg.ops, op)
	return got
}

// checkRound validates one round's schedules, checks every repeat is the
// very schedule its batch unit got, and folds them into the tally.
func (s *clusterState) checkRound(got []received) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.tally
	byFP := map[string]*hilight.Schedule{}
	for i := range got {
		r := &got[i]
		if r.qasm != "" {
			c, err := hilight.ParseQASM("request", r.qasm)
			if err != nil {
				t.fail("session qasm: %v", err)
				continue
			}
			r.tgt.c = c
		}
		meta, sch, err := r.decode()
		if err == nil {
			g := hilight.RectGrid(r.tgt.c.NumQubits)
			err = t.chk.check(sch, r.tgt, g.W, g.H)
		}
		if err == nil && r.form != "job" && r.qasm == "" {
			if u, ok := byFP[r.fp]; !ok {
				err = fmt.Errorf("repeat of unknown fingerprint %q", r.fp)
			} else if same, e := sameSchedule(u, sch); e != nil || !same {
				err = fmt.Errorf("%s form of %s differs from the batch result (%v)", r.form, r.fp, e)
			}
		}
		if err != nil {
			t.fail("%s response: %v", r.form, err)
			continue
		}
		if r.form == "job" {
			byFP[r.fp] = sch
		}
		if meta == nil || meta.Cached || (r.form != "job" && r.qasm == "") {
			continue
		}
		t.led.addCompile(time.Duration(meta.RuntimeNS), meta.passes())
		t.led.resutil = append(t.led.resutil, meta.ResUtil)
		if r.qasm != "" {
			t.warmCycles += meta.WarmCycles
			t.sessionLatency += meta.LatencyCycles
			if meta.WarmCycles == 0 {
				t.coldFallbacks++
			}
			if r.traced {
				t.tab.addCompile(time.Duration(meta.RuntimeNS), meta.passes())
				t.tracedSession += time.Duration(meta.RuntimeNS)
			}
			continue
		}
		t.coldMS = append(t.coldMS, float64(meta.RuntimeNS)/1e6)
		t.depthGaps = append(t.depthGaps, gapOf(sch.Latency(), depthBound(r.tgt.c)))
		t.pathLen += int64(sch.TotalPathLength())
		t.braids += int64(sch.BraidCount())
		if len(t.scheds) < 30 {
			t.scheds = append(t.scheds, sch)
			if len(t.inputs) < 12 {
				t.inputs = append(t.inputs, compileInput{c: r.tgt.c, g: hilight.RectGrid(r.tgt.c.NumQubits),
					opts: []hilight.Option{hilight.WithMethod(r.tgt.method)}})
			}
			b, _ := json.Marshal(compileBody{Benchmark: r.tgt.bench, Method: r.tgt.method})
			t.unitBodies = append(t.unitBodies, b)
		}
	}
}

func (t *tally) fail(format string, args ...any) {
	t.fails = append(t.fails, fmt.Sprintf(format, args...))
}

func (s *clusterState) finish(logs []clientLog) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	t := &s.tally
	for _, f := range t.fails {
		out.attempted++
		out.fail("%s", f)
	}
	var rounds []float64
	var unitsPerS float64
	for k := range logs {
		rounds = append(rounds, logs[k].rounds...)
		unitsPerS += ratio(float64(logs[k].units), logs[k].busy.Seconds())
	}

	var lat, ttfl, recompile, batch, acks, gaps, tracedLat, untracedLat, transport []float64
	var e2e, rttSum, coordSum time.Duration
	for k := range logs {
		for _, op := range logs[k].ops {
			out.attempted++
			if !op.ok {
				out.fail("%s: %s", op.class, op.err)
				continue
			}
			l := ms(op.lat)
			lat = append(lat, l)
			gaps = append(gaps, ms(op.gap))
			switch op.class {
			case "jobs-submit":
				acks = append(acks, l)
				batch = append(batch, op.batch.Seconds())
			case "stream":
				ttfl = append(ttfl, ms(op.ttfl))
			case "session":
				recompile = append(recompile, l)
			}
			if !s.cfg.trace || op.class == "jobs-submit" {
				continue
			}
			if !op.traced {
				untracedLat = append(untracedLat, l)
				continue
			}
			tracedLat = append(tracedLat, l)
			h := s.crec.op(op.id)
			e2e += op.lat
			rttSum += op.rtt
			coordSum += h
			transport = append(transport, ms(op.rtt-h))
		}
	}
	if !s.cfg.trace {
		m["suite_s"] = median(rounds)
		m["compile_ms_geomean"] = geomean(t.coldMS)
		m["depth_gap_geomean"] = geomean(t.depthGaps)
		m["braid_len_mean"] = ratio(float64(t.pathLen), float64(t.braids))
		m["req_ms_p50"] = percentile(lat, 50)
		m["req_ms_p99"] = percentile(lat, 99)
		m["ttfl_ms_p50"] = median(ttfl)
		m["recompile_ms_p50"] = median(recompile)
		m["batch_s_p50"] = median(batch)
		m["units_per_s"] = unitsPerS
		return out, nil
	}

	t.led.rounds = len(rounds)
	t.led.metrics(m)
	syncClasses := []string{"hit-json", "hit-bin", "stream", "session"}
	var coordSync, workerSync []float64
	var workerSum time.Duration
	worker := map[string][]float64{}
	var perWorker []float64
	var total float64
	for _, c := range syncClasses {
		coordSync = append(coordSync, s.crec.class(c)...)
	}
	for _, rec := range s.wrecs {
		for _, c := range append(syncClasses, "jobs-submit") {
			xs := rec.class(c)
			worker[c] = append(worker[c], xs...)
			if c != "jobs-submit" {
				workerSync = append(workerSync, xs...)
				for _, x := range xs {
					workerSum += time.Duration(x * float64(time.Millisecond))
				}
			}
		}
		n := float64(rec.compiles.Load())
		perWorker = append(perWorker, n)
		total += n
	}
	for _, c := range syncClasses {
		m["service.handler_ms_p50."+c] = median(worker[c])
	}
	// Batch units reach a worker as cold sync compiles.
	m["service.handler_ms_p50.miss"] = median(worker["jobs-submit"])
	m["service.handler_ms_p50.jobs-submit"] = median(s.crec.class("jobs-submit"))
	m["cluster.coord_handler_ms_p50"] = median(coordSync)
	m["cluster.worker_handler_ms_p50"] = median(workerSync)
	m["cluster.hop_ms_p50"] = median(coordSync) - median(workerSync)
	var hits, lookups, evictions, rejected float64
	for _, w := range s.workers {
		snap := w.Metrics().Snapshot()
		h, _ := snap.Counter("cache/hits")
		mi, _ := snap.Counter("cache/misses")
		ev, _ := snap.Counter("cache/evictions")
		rj, _ := snap.Counter("service/rejected")
		hits, lookups, evictions, rejected = hits+float64(h), lookups+float64(h+mi), evictions+float64(ev), rejected+float64(rj)
	}
	m["service.cache_hit_ratio"] = ratio(hits, lookups)
	m["service.cache_evictions"] = evictions
	m["service.rejected_429"] = rejected
	m["service.jobs_ack_ms_p50"] = median(acks)
	csnap := s.creg.Snapshot()
	cc := func(name string) float64 { v, _ := csnap.Counter(name); return float64(v) }
	r := float64(max(len(rounds), 1))
	m["cluster.affinity_hit_ratio"] = ratio(cc("cluster/affinity-hits"), cc("cluster/forwards")+cc("cluster/units-done"))
	m["cluster.unit_cache_hit_ratio"] = ratio(cc("cluster/unit-cache-hits"), cc("cluster/forwards")+cc("cluster/units-done"))
	m["cluster.steals"] = cc("cluster/steals") / r
	m["cluster.requeues"] = cc("cluster/requeues") / r
	m["cluster.forward_retries"] = cc("cluster/forward-retries") / r
	mx := 0.0
	for _, n := range perWorker {
		mx = max(mx, n)
	}
	m["cluster.worker_share_max"] = ratio(mx, total)
	m["session.warm_share"] = ratio(float64(t.warmCycles), float64(t.sessionLatency))
	m["session.cold_fallbacks"] = float64(t.coldFallbacks) / r
	m["sched.validate_ms"] = mean(t.chk.validate)
	m["harness.gen_lag_ms_p99"] = percentile(gaps, 99)
	m["harness.trace_overhead"] = ratio(median(tracedLat), median(untracedLat))
	m["http.transport_ms_p50"] = median(transport)
	if err := s.replayEdge(t.unitBodies, m); err != nil {
		return nil, err
	}
	if err := replayCompiler(t.inputs, m); err != nil {
		return nil, err
	}
	if err := replayWire(t.scheds, m); err != nil {
		return nil, err
	}
	rows := []layerRow{
		{"http transport", rttSum - coordSum},
		{"coordinator (self)", coordSum - workerSum},
		{"worker handler (self)", workerSum - t.tracedSession},
	}
	m["harness.residual_share"] = printLayers(os.Stdout, "cluster-batch (traced sync requests)", e2e, append(rows, t.tab.compileRows()...))
	return out, nil
}

// replayEdge fetches worker envelopes for unit bodies and times the
// coordinator's edge transcode on them.
func (s *clusterState) replayEdge(bodies [][]byte, m map[string]float64) error {
	cl := newClient()
	defer closeClient(cl)
	const reps = 3
	var d time.Duration
	n := 0
	for _, b := range bodies {
		rp, err := do(cl, http.MethodPost, s.wlbs[0].url+"/v1/compile", b, map[string]string{"Accept": wire.BinaryEnvelopeContentType})
		if err != nil {
			return err
		}
		if rp.status != http.StatusOK {
			return fmt.Errorf("envelope: status %d: %s", rp.status, bytes.TrimSpace(rp.body))
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := service.TranscodeEnvelope(rp.body); err != nil {
				return err
			}
		}
		d += time.Since(t0)
		n += reps
	}
	m["service.edge_transcode_us"] = ratio(us(d), float64(n))
	return nil
}
