// Command hlbench is the HiLight benchmark: one program that runs a
// workload against the compiler library, an in-process hilightd, or an
// in-process coordinator with two workers, checks every schedule it
// receives, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	hlbench --workload table1-compile --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics (and a table of each layer's self time). See
// README.md for the workloads and every metric's definition.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start for the first set-up time.
var procStart = time.Now()

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each workload's definition).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"suite_s", "s", "lower"},
	{"compile_ms_geomean", "ms", "lower"},
	{"depth_gap_geomean", "ratio", "lower"},
	{"braid_len_mean", "vertices", "lower"},
	{"req_ms_p50", "ms", "lower"},
	{"req_ms_p99", "ms", "lower"},
	{"ttfl_ms_p50", "ms", "lower"},
	{"recompile_ms_p50", "ms", "lower"},
	{"batch_s_p50", "s", "lower"},
	{"units_per_s", "1/s", "higher"},
	{"ok_share", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// handlerClasses are the traffic classes whose handler time is reported.
var handlerClasses = []string{"hit-json", "hit-bin", "miss", "stream", "session", "jobs-submit", "defects"}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer a workload does not cross is measured by a side run (see
// measureUncrossed).
var perLayer = func() []metricDef {
	d := []metricDef{
		{"core.decompose-swaps_ms", "ms", "lower"},
		{"core.qco_ms", "ms", "lower"},
		{"core.place_ms", "ms", "lower"},
		{"core.route_ms", "ms", "lower"},
		{"core.finalize-metrics_ms", "ms", "lower"},
		{"core.residual_ms", "ms", "lower"},
		{"route.searches", "count", "lower"},
		{"route.search_pops", "count", "lower"},
		{"route.ns_per_search", "ns", "lower"},
		{"route.searches_per_braid", "ratio", "lower"},
		{"route.parallel.conflict_ratio", "ratio", "lower"},
		{"route.parallel.retries", "count", "lower"},
		{"route.par_scaling", "ratio", "higher"},
		{"hilight.compile_ms", "ms", "lower"},
		{"hilight.allocs_per_compile", "count", "lower"},
		{"hilight.fingerprint_us", "us", "lower"},
		{"wire.bin_encode_us", "us", "lower"},
		{"wire.bin_decode_us", "us", "lower"},
		{"wire.json_encode_us", "us", "lower"},
		{"wire.json_decode_us", "us", "lower"},
		{"wire.transcode_us", "us", "lower"},
		{"wire.bin_json_bytes_ratio", "ratio", "lower"},
		{"sched.validate_ms", "ms", "lower"},
		{"hwopt.resutil_geomean", "ratio", "higher"},
	}
	for _, c := range handlerClasses {
		d = append(d, metricDef{"service.handler_ms_p50." + c, "ms", "lower"})
	}
	return append(d, []metricDef{
		{"http.transport_ms_p50", "ms", "lower"},
		{"service.cache_hit_ratio", "ratio", "higher"},
		{"service.cache_evictions", "count", "lower"},
		{"service.rejected_429", "count", "lower"},
		{"service.journal_fsyncs", "count", "lower"},
		{"service.jobs_ack_ms_p50", "ms", "lower"},
		{"service.defects_evicted", "count", "lower"},
		{"service.defects_recompiled", "count", "lower"},
		{"session.warm_share", "ratio", "higher"},
		{"session.cold_fallbacks", "count", "lower"},
		{"cluster.coord_handler_ms_p50", "ms", "lower"},
		{"cluster.worker_handler_ms_p50", "ms", "lower"},
		{"cluster.hop_ms_p50", "ms", "lower"},
		{"cluster.affinity_hit_ratio", "ratio", "higher"},
		{"cluster.unit_cache_hit_ratio", "ratio", "higher"},
		{"cluster.steals", "count", "lower"},
		{"cluster.requeues", "count", "lower"},
		{"cluster.forward_retries", "count", "lower"},
		{"cluster.worker_share_max", "ratio", "lower"},
		{"service.edge_transcode_us", "us", "lower"},
		{"harness.gen_lag_ms_p99", "ms", "lower"},
		{"harness.residual_share", "ratio", "lower"},
		{"harness.trace_overhead", "ratio", "lower"},
	}...)
}()

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is a workload run's result: operation counts plus the metrics
// of the requested kind (the harness adds setup_s, ok_share and
// peak_rss_mb).
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workload is a benchmark workload: setup builds its inputs and starts
// whatever it drives; the returned run measures for the configured time
// and close releases everything setup started.
type workload struct {
	name  string
	setup func(cfg runConfig) (run func() (*outcome, error), close func(), err error)
}

var workloads = []workload{
	{"table1-compile", setupTable1},
	{"service-mix", setupServiceMix},
	{"cluster-batch", setupClusterBatch},
}

func main() {
	name := flag.String("workload", "", "workload: table1-compile, service-mix or cluster-batch")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	results := flag.String("results", "", "directory for the machine-tagged result file (none when empty)")
	commit := flag.String("commit", "unknown", "source commit recorded in the result file")
	flag.Parse()

	wl := lookupWorkload(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hlbench: need --workload table1-compile|service-mix|cluster-batch, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	out, setupS, err := execute(wl, cfg)
	if err == nil && cfg.trace {
		err = measureUncrossed(wl, cfg, out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		out.metrics["setup_s"] = setupS
		out.metrics["ok_share"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	}
	correct := out.failed == 0 && out.attempted > 0
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		switch {
		case cfg.trace && (!ok || math.IsNaN(v) || math.IsInf(v, 0)):
			v = 0 // a layer neither this run nor a side run measured
		case !cfg.trace && (!ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0):
			correct = false
			out.errs = append(out.errs, fmt.Sprintf("metric %s not measured (%v)", d.Name, v))
			v = 0
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "hlbench: failure:", e)
	}
	res := map[string]any{"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
	if *results != "" {
		if err := writeResultFile(*results, wl.name, cfg, *commit, res); err != nil {
			fmt.Fprintln(os.Stderr, "hlbench: result file:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// Set-ups per run: setupsBefore before the measured phase (the first
// timed from process start, the last the one the measured phase uses) and
// setupsAfter once it has ended, so the median set-up time does not hang
// on the host's load at one moment.
const (
	setupsBefore = 5
	setupsAfter  = 4
)

// execute sets the workload up setupsBefore times, runs the measured phase
// on the last set-up, sets it up setupsAfter more times, and returns the
// outcome with the median set-up time in seconds.
func execute(wl *workload, cfg runConfig) (*outcome, float64, error) {
	var times []float64
	setup := func(t0 time.Time) (func() (*outcome, error), func(), error) {
		r, c, err := wl.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "hlbench: set-up %d took %.4f s\n", len(times), times[len(times)-1])
		return r, c, nil
	}
	var run func() (*outcome, error)
	var closeFn func()
	for i := 0; i < setupsBefore; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		r, c, err := setup(t0)
		if err != nil {
			return nil, 0, err
		}
		if i < setupsBefore-1 {
			c()
			continue
		}
		run, closeFn = r, c
	}
	out, err := run()
	closeFn()
	if err != nil {
		return nil, 0, err
	}
	if out.attempted == 0 {
		return nil, 0, errors.New("no operation attempted")
	}
	for i := 0; i < setupsAfter; i++ {
		_, c, err := setup(time.Now())
		if err != nil {
			return nil, 0, err
		}
		c()
	}
	return out, median(times), nil
}

// sideRun is how long a traced side run measures.
const sideRun = 10 * time.Second

// measureUncrossed fills the per-layer metrics of layers wl does not cross
// (those it left unset or NaN) from short traced side runs of the
// workloads that do, with the same seed, so every per-layer metric of a
// traced run is a measurement. The side runs' operations and failures
// count in out.
func measureUncrossed(wl *workload, cfg runConfig, out *outcome) error {
	side := cfg
	side.seconds = sideRun
	// The cluster crosses the most layers, so it goes first.
	for _, name := range []string{"cluster-batch", "service-mix", "table1-compile"} {
		var missing []string
		for _, d := range perLayer {
			if v, ok := out.metrics[d.Name]; !ok || math.IsNaN(v) {
				missing = append(missing, d.Name)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if name == wl.name {
			continue
		}
		other := lookupWorkload(name)
		fmt.Printf("side run of %s (%v) for layers %s does not cross: %s\n", name, sideRun, wl.name, strings.Join(missing, " "))
		run, closeFn, err := other.setup(side)
		if err != nil {
			return fmt.Errorf("side run of %s: %w", name, err)
		}
		o, err := run()
		closeFn()
		if err != nil {
			return fmt.Errorf("side run of %s: %w", name, err)
		}
		out.attempted += o.attempted
		out.failed += o.failed
		out.errs = append(out.errs, o.errs...)
		for _, n := range missing {
			if v, ok := o.metrics[n]; ok && !math.IsNaN(v) {
				out.metrics[n] = v
			}
		}
	}
	return nil
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResultFile records one run, tagged with the machine and source it
// ran on, as its own file under dir.
func writeResultFile(dir, workload string, cfg runConfig, commit string, res map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"time":       time.Now().UTC().Format(time.RFC3339),
		"result":     res,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, cfg.seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
