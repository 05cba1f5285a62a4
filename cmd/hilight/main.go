// Command hilight maps a quantum circuit onto a double-defect
// surface-code grid and reports the braiding schedule and its metrics.
//
// Usage:
//
//	hilight -in circuit.qasm [flags]
//	hilight -bench QFT-100 [flags]
//
// Flags select the mapping method (any of the paper's configurations,
// including the AutoBraid baselines), the grid shape, an optional
// magic-state factory reservation, and the output form.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"hilight"
	"hilight/internal/wire"
)

func main() {
	var (
		inFile  = flag.String("in", "", "OpenQASM 2.0 input file")
		benchN  = flag.String("bench", "", "built-in benchmark name (see -list)")
		list    = flag.Bool("list", false, "list built-in benchmarks and methods")
		method  = flag.String("method", "hilight", "mapping method")
		gridKin = flag.String("grid", "rect", "grid shape: square or rect (M×(M−1))")
		factory = flag.String("factory", "", "reserve a WxH magic-state factory, e.g. 2x2")
		seed    = flag.Int64("seed", 1, "seed for randomized components")
		show    = flag.String("show", "metrics", "output: metrics, layers, viz, heat, svg, json, or qasm")
		format  = flag.String("format", "", "schedule encoding to stdout: json (canonical JSON), bin (versioned binary wire format), or stream (binary frames emitted while the router runs); overrides -show")
		trace   = flag.Bool("trace", false, "print per-stage pipeline timing and counters")
		metrics = flag.Bool("metrics", false, "print aggregated compile metrics (Prometheus text format) after the output")
		magicP  = flag.Int("magic-period", 0, "analyze magic-state throughput: cycles per distilled state (0 = off)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile to this file after compiling")
		diffF   = flag.Bool("diff", false, "compare two schedule files (canonical JSON or binary wire format) and print the differences: hilight -diff a.json b.json")
	)
	flag.Parse()
	if *diffF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "hilight: -diff needs exactly two schedule files")
			os.Exit(2)
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "hilight:", err)
			os.Exit(1)
		}
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hilight:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hilight:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(*inFile, *benchN, *list, *method, *gridKin, *factory, *seed, *show, *format, *magicP, *trace, *metrics)
	if *memProf != "" {
		f, merr := os.Create(*memProf)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "hilight:", merr)
			os.Exit(1)
		}
		runtime.GC() // report live objects, not transient garbage
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "hilight:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hilight:", err)
		exit(1)
	}
}

// exit runs deferred profile flushes before terminating.
func exit(code int) {
	pprof.StopCPUProfile()
	os.Exit(code)
}

// runDiff loads two schedule files and prints how they differ — the
// regression view for anyone iterating on heuristics, and the offline
// twin of the delta a session recompile reports.
func runDiff(pathA, pathB string) error {
	a, err := loadSchedule(pathA)
	if err != nil {
		return err
	}
	b, err := loadSchedule(pathB)
	if err != nil {
		return err
	}
	d := hilight.CompareSchedules(a, b)
	d.Print(os.Stdout, filepath.Base(pathA), filepath.Base(pathB))
	return nil
}

// loadSchedule reads a schedule in either on-disk encoding the CLI can
// emit, sniffing JSON by its leading byte.
func loadSchedule(path string) (*hilight.Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		s, err := hilight.DecodeScheduleJSON(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	s, err := hilight.DecodeScheduleBinary(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func run(inFile, benchName string, list bool, method, gridKind, factory string, seed int64, show, format string, magicPeriod int, trace, metrics bool) error {
	if list {
		fmt.Println("methods:")
		for _, m := range hilight.Methods() {
			fmt.Println("  " + m)
		}
		fmt.Println("benchmarks:")
		for _, b := range hilight.BenchmarkNames() {
			fmt.Println("  " + b)
		}
		return nil
	}
	var c *hilight.Circuit
	switch {
	case inFile != "":
		var err error
		if strings.EqualFold(filepath.Ext(inFile), ".real") {
			data, rerr := os.ReadFile(inFile)
			if rerr != nil {
				return rerr
			}
			name := strings.TrimSuffix(filepath.Base(inFile), filepath.Ext(inFile))
			c, err = hilight.ParseReal(name, string(data))
		} else {
			c, err = hilight.ParseQASMFile(inFile)
		}
		if err != nil {
			return err
		}
	case benchName != "":
		var ok bool
		c, ok = hilight.Benchmark(benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", benchName)
		}
	default:
		return fmt.Errorf("need -in or -bench (try -list)")
	}

	switch format {
	case "", "json", "bin", "stream":
	default:
		return fmt.Errorf("unknown -format %q (json, bin, stream)", format)
	}
	// Binary formats own stdout; human-readable side channels (trace,
	// metrics exposition) move to stderr so the payload stays parseable.
	textOut := os.Stdout
	if format == "bin" || format == "stream" {
		textOut = os.Stderr
	}

	g, err := buildGrid(c.NumQubits, gridKind, factory)
	if err != nil {
		return err
	}
	copts := []hilight.Option{hilight.WithMethod(method), hilight.WithSeed(seed)}
	var reg *hilight.Metrics
	if metrics {
		reg = hilight.NewMetrics()
		copts = append(copts, hilight.WithMetrics(reg))
	}
	var enc *wire.StreamEncoder
	if format == "stream" {
		// Frames hit stdout while the router runs: a consumer holds layer 0
		// before the compile finishes.
		enc = wire.NewStreamEncoder(os.Stdout)
		copts = append(copts, hilight.WithScheduleSink(enc))
	}
	res, err := hilight.Compile(c, g, copts...)
	if err != nil {
		if enc != nil && enc.Started() {
			// Frames already went out; deliver the failure in-band too.
			_ = enc.Abort(err.Error())
		}
		return err
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		if enc != nil && enc.Started() {
			_ = enc.Abort(err.Error())
		}
		return fmt.Errorf("internal error: produced invalid schedule: %w", err)
	}
	if trace {
		printTrace(textOut, res)
	}

	switch format {
	case "stream":
		meta, err := json.Marshal(map[string]any{
			"latency_cycles": res.Latency,
			"path_len":       res.PathLen,
			"resutil":        res.ResUtil,
			"runtime_ns":     res.Runtime.Nanoseconds(),
		})
		if err != nil {
			return err
		}
		if err := enc.End(meta); err != nil {
			return err
		}
		return writeMetrics(reg, textOut)
	case "bin":
		data, err := hilight.EncodeScheduleBinary(res.Schedule)
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
		return writeMetrics(reg, textOut)
	case "json":
		data, err := hilight.EncodeScheduleJSON(res.Schedule)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return writeMetrics(reg, textOut)
	}

	switch show {
	case "metrics":
		fmt.Printf("circuit   %s (%d qubits, %d gates, %d two-qubit)\n",
			c.Name, c.NumQubits, c.Len(), c.CXCount())
		fmt.Printf("grid      %s\n", g)
		fmt.Printf("method    %s\n", method)
		fmt.Printf("latency   %d cycles\n", res.Latency)
		fmt.Printf("runtime   %s\n", res.Runtime)
		fmt.Printf("resutil   %.3f\n", res.ResUtil)
		fmt.Printf("pathlen   %d occupied routing vertices\n", res.PathLen)
		if ins := res.Schedule.InsertedBraids(); ins > 0 {
			fmt.Printf("inserted  %d SWAP braids\n", ins)
		}
		if magicPeriod > 0 {
			unit := hilight.DefaultMagicFactory()
			unit.Period = magicPeriod
			rep, err := hilight.AnalyzeMagic(res.Circuit, res.Schedule, unit)
			if err != nil {
				return err
			}
			fmt.Printf("magic     %d T gates, %d stall cycles with 1 unit (total latency %d)\n",
				rep.TCount, rep.StallCycles, rep.TotalLatency)
			if k, err := hilight.MagicFactoriesNeeded(res.Circuit, res.Schedule, unit, 0, 1024); err == nil {
				fmt.Printf("          %d units needed for stall-free execution\n", k)
			}
		}
	case "viz":
		fmt.Print(hilight.RenderSchedule(res.Schedule, 8))
	case "heat":
		fmt.Print(hilight.RenderHeat(res.Schedule))
	case "svg":
		fmt.Print(hilight.RenderSVG(res.Schedule, 16))
	case "json":
		data, err := hilight.EncodeScheduleJSON(res.Schedule)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	case "layers":
		for i, layer := range res.Schedule.Layers {
			fmt.Printf("cycle %d:\n", i)
			for _, b := range layer {
				if b.Gate >= 0 {
					fmt.Printf("  gate %d  %v  tiles %d->%d  path %v\n",
						b.Gate, res.Circuit.Gates[b.Gate], b.CtlTile, b.TgtTile, b.Path)
				} else {
					fmt.Printf("  swap braid  tiles %d<->%d  path %v\n", b.CtlTile, b.TgtTile, b.Path)
				}
			}
		}
	case "qasm":
		fmt.Print(hilight.FormatQASM(res.Circuit))
	default:
		return fmt.Errorf("unknown -show %q (metrics, layers, viz, heat, svg, json, qasm)", show)
	}
	return writeMetrics(reg, os.Stdout)
}

// writeMetrics appends the Prometheus exposition when -metrics asked for
// it; a nil registry is a no-op.
func writeMetrics(reg *hilight.Metrics, w io.Writer) error {
	if reg == nil {
		return nil
	}
	fmt.Fprintln(w)
	return reg.WriteMetrics(w)
}

// printTrace renders Result.Trace as a per-stage table: one row per
// executed pipeline pass with its wall-clock duration and counters.
func printTrace(w io.Writer, res *hilight.Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tduration\tcounters")
	var total time.Duration
	for _, st := range res.Trace {
		total += st.Duration
		parts := make([]string, 0, len(st.Counters))
		for _, c := range st.Counters {
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", st.Stage, st.Duration, strings.Join(parts, " "))
	}
	fmt.Fprintf(tw, "total\t%s\t(runtime %s)\n", total, res.Runtime)
	tw.Flush()
}

func buildGrid(n int, kind, factory string) (*hilight.Grid, error) {
	rect := false
	switch kind {
	case "rect":
		rect = true
	case "square":
	default:
		return nil, fmt.Errorf("unknown -grid %q (square, rect)", kind)
	}
	if factory == "" {
		if rect {
			return hilight.RectGrid(n), nil
		}
		return hilight.SquareGrid(n), nil
	}
	var fw, fh int
	if _, err := fmt.Sscanf(factory, "%dx%d", &fw, &fh); err != nil {
		return nil, fmt.Errorf("bad -factory %q, want WxH: %w", factory, err)
	}
	return hilight.GridWithFactory(n, fw, fh, rect)
}
