package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"hilight"
)

// passRec is one pipeline pass as the program reported it, either from
// Result.Trace or from the trace array of a service response.
type passRec struct {
	stage    string
	dur      time.Duration
	counters map[string]int64
}

func passRecs(trace []hilight.StageTrace) []passRec {
	out := make([]passRec, len(trace))
	for i, st := range trace {
		m := make(map[string]int64, len(st.Counters))
		for _, c := range st.Counters {
			m[c.Name] = c.Value
		}
		out[i] = passRec{stage: st.Stage, dur: st.Duration, counters: m}
	}
	return out
}

// corePasses are the passes reported under their own core.<pass>_ms
// metric; the route metric covers both route engines.
var corePasses = []string{"decompose-swaps", "qco", "place", "route", "finalize-metrics"}

func passKey(stage string) string {
	if stage == "route-parallel" {
		return "route"
	}
	return stage
}

// ledger accumulates the compiler-layer observations of one run. Sums are
// reported per round of the workload (a Table 1 pass, the whole open-loop
// schedule, or one cluster client round) so runs of different length
// compare.
type ledger struct {
	rounds      int
	compiles    int
	compileSpan time.Duration            // Σ hilight.Compile spans
	pass        map[string]time.Duration // passKey → Σ duration
	passTotal   time.Duration
	searches    int64
	pops        int64
	braids      int64
	routeDur    time.Duration
	parBraids   int64
	conflicts   int64
	retries     int64
	resutil     []float64
}

func newLedger() *ledger { return &ledger{pass: map[string]time.Duration{}} }

// addCompile records one cold compile: its span and the passes inside it.
func (l *ledger) addCompile(span time.Duration, trace []passRec) {
	l.compiles++
	l.compileSpan += span
	for _, p := range trace {
		k := passKey(p.stage)
		l.pass[k] += p.dur
		l.passTotal += p.dur
		if k != "route" {
			continue
		}
		l.routeDur += p.dur
		l.searches += p.counters["searches"]
		l.pops += p.counters["search-pops"]
		l.braids += p.counters["braids"]
		if p.stage == "route-parallel" {
			l.parBraids += p.counters["braids"]
			l.conflicts += p.counters["conflicts"]
			l.retries += p.counters["retries"]
		}
	}
}

// metrics writes the core, route and hilight.compile_ms metrics.
func (l *ledger) metrics(m map[string]float64) {
	r := float64(max(l.rounds, 1))
	for _, p := range corePasses {
		m["core."+p+"_ms"] = ms(l.pass[p]) / r
	}
	m["core.residual_ms"] = ms(l.compileSpan-l.passTotal) / r
	m["route.searches"] = float64(l.searches) / r
	m["route.search_pops"] = float64(l.pops) / r
	m["route.ns_per_search"] = ratio(float64(l.routeDur.Nanoseconds()), float64(l.searches))
	m["route.searches_per_braid"] = ratio(float64(l.searches), float64(l.braids))
	m["route.parallel.conflict_ratio"] = ratio(float64(l.conflicts), float64(l.parBraids))
	m["route.parallel.retries"] = float64(l.retries) / r
	m["hilight.compile_ms"] = ratio(ms(l.compileSpan), float64(l.compiles))
	if len(l.resutil) > 0 {
		m["hwopt.resutil_geomean"] = geomean(l.resutil)
	}
}

// compileRows returns the self-time rows of the compiler layers: every
// pass, and hilight.Compile's own time outside its passes.
func (l *ledger) compileRows() []layerRow {
	var rows []layerRow
	for k, d := range l.pass {
		rows = append(rows, layerRow{"core." + k, d})
	}
	return append(rows, layerRow{"hilight.Compile (self)", l.compileSpan - l.passTotal})
}

// layerRow is one layer's self time over a run.
type layerRow struct {
	name string
	self time.Duration
}

// printLayers prints each layer's self time, their sum and the share of
// the end-to-end time no layer explains, and returns that share.
func printLayers(w io.Writer, workload string, e2e time.Duration, rows []layerRow) float64 {
	fmt.Fprintf(w, "layers of %s (self time over the run):\n", workload)
	var sum time.Duration
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %12.3f ms\n", r.name, ms(r.self))
		sum += r.self
	}
	residual := ratio(float64(e2e-sum), float64(e2e))
	fmt.Fprintf(w, "  %-34s %12.3f ms\n", "sum of layers", ms(sum))
	fmt.Fprintf(w, "  %-34s %12.3f ms\n", "end-to-end", ms(e2e))
	fmt.Fprintf(w, "  %-34s %12.4f\n", "harness.residual_share", residual)
	return residual
}

// replayWire times the wire codecs on schedules the run received and
// writes the wire.* metrics. Each call is repeated so microsecond codecs
// are timed over a measurable interval.
func replayWire(scheds []*hilight.Schedule, m map[string]float64) error {
	const reps = 3
	var binEnc, binDec, jsonEnc, jsonDec, transcode time.Duration
	var binBytes, jsonBytes int
	for _, s := range scheds {
		var bin, js []byte
		var err error
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if bin, err = hilight.EncodeScheduleBinary(s); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			if js, err = hilight.EncodeScheduleJSON(s); err != nil {
				return err
			}
		}
		t2 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err = hilight.DecodeScheduleBinary(bin); err != nil {
				return err
			}
		}
		t3 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err = hilight.DecodeScheduleJSON(js); err != nil {
				return err
			}
		}
		t4 := time.Now()
		// The service's stored-form transcode: decode the cached binary
		// payload, re-encode it as the JSON response schedule.
		for i := 0; i < reps; i++ {
			d, err := hilight.DecodeScheduleBinary(bin)
			if err != nil {
				return err
			}
			if _, err = hilight.EncodeScheduleJSON(d); err != nil {
				return err
			}
		}
		t5 := time.Now()
		binEnc += t1.Sub(t0)
		jsonEnc += t2.Sub(t1)
		binDec += t3.Sub(t2)
		jsonDec += t4.Sub(t3)
		transcode += t5.Sub(t4)
		binBytes += len(bin)
		jsonBytes += len(js)
	}
	n := float64(len(scheds) * reps)
	m["wire.bin_encode_us"] = ratio(us(binEnc), n)
	m["wire.bin_decode_us"] = ratio(us(binDec), n)
	m["wire.json_encode_us"] = ratio(us(jsonEnc), n)
	m["wire.json_decode_us"] = ratio(us(jsonDec), n)
	m["wire.transcode_us"] = ratio(us(transcode), n)
	m["wire.bin_json_bytes_ratio"] = ratio(float64(binBytes), float64(jsonBytes))
	return nil
}

// compileInput is one compile the program performed, rebuilt on the
// benchmark side so its public calls can be replayed.
type compileInput struct {
	c    *hilight.Circuit
	g    *hilight.Grid
	opts []hilight.Option
}

// replayFingerprint times hilight.Fingerprint on inputs the run used,
// writing hilight.fingerprint_us.
func replayFingerprint(inputs []compileInput, m map[string]float64) error {
	var fp time.Duration
	for _, in := range inputs {
		t0 := time.Now()
		if _, err := hilight.Fingerprint(in.c, in.g, in.opts...); err != nil {
			return err
		}
		fp += time.Since(t0)
	}
	m["hilight.fingerprint_us"] = ratio(us(fp), float64(len(inputs)))
	return nil
}

// replayCompiler replays hilight.Fingerprint and counts the allocations of
// hilight.Compile on inputs the run used, writing hilight.fingerprint_us
// and hilight.allocs_per_compile.
func replayCompiler(inputs []compileInput, m map[string]float64) error {
	if err := replayFingerprint(inputs, m); err != nil {
		return err
	}
	var mallocs uint64
	var before, after runtime.MemStats
	for _, in := range inputs {
		runtime.ReadMemStats(&before)
		if _, err := hilight.Compile(in.c, in.g, in.opts...); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	m["hilight.allocs_per_compile"] = ratio(float64(mallocs), float64(len(inputs)))
	return nil
}

// parScaling compiles the parallel router's scaling set under
// hilight-map-parallel at one route worker and at GOMAXPROCS, checks the
// two schedules are byte-identical, and returns Σ route time at one
// worker ÷ Σ route time at GOMAXPROCS (median of three rounds each).
func parScaling() (float64, error) {
	names := []string{"QFT-150", "QFT-200", "Shor-471"}
	procs := runtime.GOMAXPROCS(0)
	route := func(c *hilight.Circuit, workers int) (time.Duration, *hilight.Schedule, error) {
		res, err := hilight.Compile(c, hilight.RectGrid(c.NumQubits),
			hilight.WithMethod("hilight-map-parallel"), hilight.WithRouteWorkers(workers))
		if err != nil {
			return 0, nil, err
		}
		var d time.Duration
		for _, st := range res.Trace {
			if passKey(st.Stage) == "route" {
				d += st.Duration
			}
		}
		return d, res.Schedule, nil
	}
	var one, many []float64
	for round := 0; round < 3; round++ {
		var d1, dn time.Duration
		for _, name := range names {
			c, ok := hilight.Benchmark(name)
			if !ok {
				return 0, fmt.Errorf("unknown benchmark %s", name)
			}
			a, sa, err := route(c, 1)
			if err != nil {
				return 0, err
			}
			b, sb, err := route(c, procs)
			if err != nil {
				return 0, err
			}
			if same, err := sameSchedule(sa, sb); err != nil || !same {
				return 0, fmt.Errorf("%s: schedules differ between 1 and %d route workers (%v)", name, procs, err)
			}
			d1 += a
			dn += b
		}
		one = append(one, ms(d1))
		many = append(many, ms(dn))
	}
	return median(one) / median(many), nil
}
