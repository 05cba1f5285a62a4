package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hilight"
	"hilight/internal/bench"
)

// table1Methods are the paper's configurations the compile suite runs:
// the full method, mapping only, and mapping with the parallel router.
var table1Methods = []string{"hilight", "hilight-map", "hilight-map-parallel"}

// t1Item is one Table 1 circuit with everything the suite derives from it
// before timing starts.
type t1Item struct {
	name    string
	c       *hilight.Circuit
	g       *hilight.Grid
	depth   int
	working []*hilight.Circuit // per table1Methods entry
	// edit is the seeded single-gate append the recompile phase applies
	// to the hilight-map result; editedWorking is what the recompiled
	// schedule must validate against.
	edit          hilight.Gate
	editedWorking *hilight.Circuit
}

// table1Items builds every Table 1 circuit of at most maxGates paper gates
// on its RectGrid. QFT-400 and QFT-500 exceed the suite's bound: at 4–11 s
// each under hilight one circuit would dominate a run.
func table1Items(maxGates int, seed int64) ([]t1Item, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []t1Item
	for _, e := range bench.Table1() {
		if e.Gates > maxGates {
			continue
		}
		c := e.Build()
		it := t1Item{name: e.Name, c: c, g: hilight.RectGrid(c.NumQubits), depth: depthBound(c)}
		for _, m := range table1Methods {
			w, err := workingCircuit(c, m)
			if err != nil {
				return nil, err
			}
			it.working = append(it.working, w)
		}
		q0 := rng.Intn(c.NumQubits)
		q1 := (q0 + 1 + rng.Intn(c.NumQubits-1)) % c.NumQubits
		it.edit = hilight.Gate{Kind: hilight.CX, Q0: q0, Q1: q1}
		edited := hilight.NewCircuit(c.Name, c.NumQubits)
		edited.Append(c.Gates...)
		edited.Append(it.edit)
		w, err := workingCircuit(edited, "hilight-map")
		if err != nil {
			return nil, err
		}
		it.editedWorking = w
		items = append(items, it)
	}
	return items, nil
}

// suiteMaxGates admits every Table 1 circuit except QFT-400/QFT-500.
const suiteMaxGates = 100_000

// firstLayer is a schedule sink that records when the router sealed the
// first braiding cycle.
type firstLayer struct{ at time.Time }

func (f *firstLayer) OnStart(*hilight.Grid, *hilight.Layout) error { return nil }

func (f *firstLayer) OnLayer(int, hilight.Layer) error {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	return nil
}

// compileItem is the suite's one call into the compiler.
func compileItem(it *t1Item, method string, seed int64, sink hilight.ScheduleSink) (*hilight.Result, error) {
	opts := []hilight.Option{hilight.WithMethod(method), hilight.WithSeed(seed)}
	if sink != nil {
		opts = append(opts, hilight.WithScheduleSink(sink))
	}
	return hilight.Compile(it.c, it.g, opts...)
}

// gapOf is a schedule's latency over its dependency lower bound.
func gapOf(latency, depth int) float64 {
	if depth == 0 {
		return 1
	}
	return float64(latency) / float64(depth)
}

func setupTable1(cfg runConfig) (func() (*outcome, error), func(), error) {
	items, err := table1Items(suiteMaxGates, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	// Warm-up: one small compile per method, so lazy initialisation is
	// not charged to the first timed compile.
	warm, _ := hilight.Benchmark("QFT-10")
	for _, m := range table1Methods {
		if _, err := hilight.Compile(warm, hilight.RectGrid(warm.NumQubits), hilight.WithMethod(m)); err != nil {
			return nil, nil, err
		}
	}
	return func() (*outcome, error) { return runTable1(cfg, items) }, func() {}, nil
}

// runTable1 compiles every item under every method in a seeded order, in
// passes, until the measurement time is spent (at least one pass), with
// one caller. Validation and the recompile phase run between compiles and
// are excluded from the pass time.
func runTable1(cfg runConfig, items []t1Item) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	rng := rand.New(rand.NewSource(cfg.seed))
	nm := len(table1Methods)
	n := len(items) * nm
	perKey := make([][]float64, n)      // compile ms per pass
	tracedKey := make([][]float64, n)   // traced compiles only
	untracedKey := make([][]float64, n) // untraced compiles only
	firstLatency := make([]int, n)      // pass 0 latency, for the determinism check
	var all, passes, gaps, validate []float64
	var lat, ttfl, recompile, batch passStats
	var pathLen, braids int64
	var gapsQ []float64
	var warmCycles, recompLatency, coldFallbacks int
	var mallocs uint64
	var tracedCompiles int
	var wireScheds []*hilight.Schedule
	var inputs []compileInput
	led := newLedger()
	var suite time.Duration

	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		order := rng.Perm(n)
		perCircuit := make([]time.Duration, len(items))
		passStart := time.Now()
		var excluded time.Duration
		var prevEnd time.Time
		for k, key := range order {
			it := &items[key/nm]
			mi := key % nm
			method := table1Methods[mi]
			traced := cfg.trace && k%2 == 1
			var before, after runtime.MemStats
			if traced {
				runtime.ReadMemStats(&before)
			}
			sink := &firstLayer{}
			t0 := time.Now()
			if !prevEnd.IsZero() {
				gaps = append(gaps, ms(t0.Sub(prevEnd)))
			}
			res, err := compileItem(it, method, cfg.seed, sink)
			d := time.Since(t0)
			if traced {
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				tracedCompiles++
			}
			x0 := time.Now()
			out.attempted++
			if err != nil {
				out.fail("%s/%s: %v", it.name, method, err)
				prevEnd = time.Now()
				excluded += prevEnd.Sub(x0)
				continue
			}
			v0 := time.Now()
			if err := checkSchedule(res.Schedule, expect{working: it.working[mi], w: it.g.W, h: it.g.H}); err != nil {
				out.fail("%s/%s: %v", it.name, method, err)
			}
			validate = append(validate, ms(time.Since(v0)))
			all = append(all, ms(d))
			lat.add(ms(d))
			perKey[key] = append(perKey[key], ms(d))
			if cfg.trace {
				if traced {
					tracedKey[key] = append(tracedKey[key], ms(d))
				} else {
					untracedKey[key] = append(untracedKey[key], ms(d))
				}
			}
			if !sink.at.IsZero() {
				ttfl.add(ms(sink.at.Sub(t0)))
			}
			perCircuit[key/nm] += d
			led.addCompile(d, passRecs(res.Trace))
			if pass == 0 {
				firstLatency[key] = res.Latency
				gapsQ = append(gapsQ, gapOf(res.Latency, it.depth))
				pathLen += int64(res.PathLen)
				braids += int64(res.Schedule.BraidCount())
				led.resutil = append(led.resutil, res.ResUtil)
				if cfg.trace {
					inputs = append(inputs, compileInput{c: it.c, g: it.g,
						opts: []hilight.Option{hilight.WithMethod(method), hilight.WithSeed(cfg.seed)}})
					if method == "hilight-map" {
						wireScheds = append(wireScheds, res.Schedule)
					}
				}
			} else if res.Latency != firstLatency[key] {
				out.fail("%s/%s: latency %d in pass %d, %d in pass 0 (nondeterministic)",
					it.name, method, res.Latency, pass, firstLatency[key])
			}
			if method == "hilight-map" {
				// The session engine on the same result: a seeded
				// single-gate append, recompiled warm.
				r0 := time.Now()
				child, err := hilight.Recompile(res, hilight.Delta{Edits: []hilight.Edit{{Op: hilight.OpAppend, Gate: it.edit}}})
				rd := time.Since(r0)
				out.attempted++
				switch {
				case err != nil:
					out.fail("%s recompile: %v", it.name, err)
				default:
					if err := checkSchedule(child.Schedule, expect{working: it.editedWorking, w: it.g.W, h: it.g.H}); err != nil {
						out.fail("%s recompile: %v", it.name, err)
					}
					recompile.add(ms(rd))
					warmCycles += child.WarmCycles
					recompLatency += child.Latency
					if child.WarmCycles == 0 {
						coldFallbacks++
					}
				}
			}
			prevEnd = time.Now()
			excluded += prevEnd.Sub(x0)
		}
		wall := time.Since(passStart) - excluded
		suite += wall
		passes = append(passes, wall.Seconds())
		for _, d := range perCircuit {
			batch.add(d.Seconds())
		}
		for _, s := range []*passStats{&lat, &ttfl, &recompile, &batch} {
			s.endPass()
		}
	}
	led.rounds = len(passes)

	var keyMedians []float64
	for _, xs := range perKey {
		if len(xs) > 0 {
			keyMedians = append(keyMedians, median(xs))
		}
	}
	if !cfg.trace {
		m["peak_rss_mb"] = peakRSSMB()
		m["suite_s"] = median(passes)
		m["compile_ms_geomean"] = geomean(keyMedians)
		m["depth_gap_geomean"] = geomean(gapsQ)
		m["braid_len_mean"] = ratio(float64(pathLen), float64(braids))
		m["req_ms_p50"] = median(lat.p50)
		m["req_ms_p99"] = median(lat.p99)
		m["ttfl_ms_p50"] = median(ttfl.p50)
		m["recompile_ms_p50"] = median(recompile.p50)
		m["batch_s_p50"] = median(batch.p50)
		m["units_per_s"] = ratio(float64(len(all)), suite.Seconds())
		return out, nil
	}

	led.metrics(m)
	m["hilight.allocs_per_compile"] = ratio(float64(mallocs), float64(tracedCompiles))
	m["sched.validate_ms"] = mean(validate)
	m["session.warm_share"] = ratio(float64(warmCycles), float64(recompLatency))
	m["session.cold_fallbacks"] = float64(coldFallbacks) / float64(led.rounds)
	m["harness.gen_lag_ms_p99"] = percentile(gaps, 99)
	var overhead []float64
	for key := range perKey {
		if len(tracedKey[key]) > 0 && len(untracedKey[key]) > 0 {
			overhead = append(overhead, median(tracedKey[key])/median(untracedKey[key]))
		}
	}
	m["harness.trace_overhead"] = geomean(overhead)
	if err := replayFingerprint(inputs, m); err != nil {
		return nil, err
	}
	if err := replayWire(wireScheds, m); err != nil {
		return nil, err
	}
	ps, err := parScaling()
	if err != nil {
		out.fail("route scaling: %v", err)
	}
	m["route.par_scaling"] = ps
	m["harness.residual_share"] = printLayers(os.Stdout, "table1-compile", suite, led.compileRows())
	fmt.Fprintf(os.Stdout, "  (%d passes, %d compiles)\n", len(passes), len(all))
	return out, nil
}

// passStats collects one metric's samples pass by pass and keeps each
// pass's 50th and 99th percentiles. Every pass holds the same keys, so a
// pass's percentile sits at a fixed rank among them; over pooled passes
// the rank would move with the number of passes, between keys of very
// different cost.
type passStats struct {
	cur, p50, p99 []float64
}

func (s *passStats) add(x float64) { s.cur = append(s.cur, x) }

func (s *passStats) endPass() {
	if len(s.cur) > 0 {
		s.p50 = append(s.p50, percentile(s.cur, 50))
		s.p99 = append(s.p99, percentile(s.cur, 99))
	}
	s.cur = s.cur[:0]
}
