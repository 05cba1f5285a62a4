// Command experiments regenerates the paper's evaluation artifacts:
// Table 1 and Figures 8a, 8b, 8c, 9 and 10, plus the ablations and
// studies listed under -run.
//
// Usage:
//
//	experiments -run all -scale small
//	experiments -run table1,fig9 -scale medium -trials 10
//
// Scale bounds the benchmark sizes: small (seconds), medium (tens of
// seconds), full (the paper's largest instances, minutes).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hilight/internal/exp"
	"hilight/internal/obs"
)

// report is what every experiment returns.
type report interface{ Print(io.Writer) }

// experiments lists every -run name, in the order -run all runs them.
var experiments = []struct {
	name string
	run  func(exp.Options) (report, error)
}{
	{"table1", func(o exp.Options) (report, error) { return exp.RunTable1(o) }},
	{"fig8a", func(o exp.Options) (report, error) { return exp.RunFig8a(o) }},
	{"fig8b", func(o exp.Options) (report, error) { return exp.RunFig8b(o) }},
	{"fig8c", func(o exp.Options) (report, error) { return exp.RunFig8c(o) }},
	{"fig9", func(o exp.Options) (report, error) { return exp.RunFig9(o) }},
	{"fig10", func(o exp.Options) (report, error) { return exp.RunFig10(o) }},
	{"threshold", func(o exp.Options) (report, error) { return exp.RunThresholdSweep(o) }},
	{"finders", func(o exp.Options) (report, error) { return exp.RunFinderAblation(o) }},
	{"bounds", func(o exp.Options) (report, error) { return exp.RunBounds(o) }},
	{"defects", func(o exp.Options) (report, error) { return exp.RunDefectYield(o) }},
}

// names returns the experiment names in table order.
func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated: "+strings.Join(names(), ",")+" or all")
		scale   = flag.String("scale", "small", "benchmark scale: small, medium, full")
		trials  = flag.Int("trials", 5, "trials for randomized arms (paper: 100)")
		seed    = flag.Int64("seed", 1, "base seed")
		format  = flag.String("format", "table", "output format: table or csv (table1 and fig9 only)")
		metrics = flag.Bool("metrics", false, "print aggregated compile metrics (Prometheus text format) after the runs")
	)
	flag.Parse()
	o := exp.Options{Scale: exp.Scale(*scale), Trials: *trials, Seed: *seed}
	if *metrics {
		o.Metrics = obs.NewRegistry()
	}
	asCSV = *format == "csv"
	runs := strings.Split(*run, ",")
	if *run == "all" {
		runs = names()
	}
	for _, name := range runs {
		if err := runOne(strings.TrimSpace(name), o); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if o.Metrics != nil {
		if err := o.Metrics.WriteMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// asCSV selects CSV output for the reports that support it.
var asCSV bool

// runOne runs the named experiment and prints its report: as CSV when
// asCSV is set and the report writes CSV, as a text table otherwise.
func runOne(name string, o exp.Options) error {
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		rep, err := e.run(o)
		if err != nil {
			return err
		}
		if c, ok := rep.(interface{ WriteCSV(io.Writer) error }); ok && asCSV {
			return c.WriteCSV(os.Stdout)
		}
		rep.Print(os.Stdout)
		return nil
	}
	return fmt.Errorf("unknown experiment (%s)", strings.Join(names(), ", "))
}
