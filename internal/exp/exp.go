// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section from the re-implemented
// frameworks and prints the same rows/series the paper reports.
//
// Experiments return structured reports (so tests can assert the paper's
// qualitative shape — who wins, by roughly what factor) and render
// themselves as text tables.
package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"
	"time"

	"hilight/internal/bench"
	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/obs"
)

// Scale bounds how much of Table 1 an experiment runs.
type Scale string

// Scales, by maximum benchmark gate count.
const (
	ScaleSmall  Scale = "small"  // ≤ 2,500 gates: seconds
	ScaleMedium Scale = "medium" // ≤ 40,000 gates: tens of seconds
	ScaleFull   Scale = "full"   // everything, including QFT-500 (0.25M gates)
)

func (s Scale) maxGates() int {
	switch s {
	case ScaleSmall:
		return 2500
	case ScaleMedium:
		return 40000
	default:
		return math.MaxInt
	}
}

// Options configures an experiment run.
type Options struct {
	Scale Scale
	Seed  int64
	// Trials averages the random-placement / random-ordering arms; the
	// paper uses 100, the default here is 5 to keep runs quick.
	Trials int
	// Metrics, when non-nil, aggregates every compile of the experiment
	// into the registry (pipeline pass counters, latency histograms,
	// routing totals) — the process-wide view of what a run actually did.
	Metrics *obs.Registry
}

func (o Options) fill() Options {
	if o.Scale == "" {
		o.Scale = ScaleSmall
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// entries returns the Table 1 benchmarks within the scale budget.
func (o Options) entries() []bench.Entry {
	maxG := o.Scale.maxGates()
	var out []bench.Entry
	for _, e := range bench.Table1() {
		if e.Gates <= maxG {
			out = append(out, e)
		}
	}
	return out
}

// Measurement is one framework run on one benchmark.
type Measurement struct {
	Latency int
	Runtime time.Duration
	ResUtil float64
}

// rtFloor is the runtime floor of every normalized runtime ratio: 50µs
// keeps trivial benchmarks from dominating the geomean.
const rtFloor = 50e-6

// arm is one compiler configuration of an experiment, measured on every
// benchmark of its run.
type arm struct {
	name string
	sp   core.Spec
	// trials is the number of seeds averaged on a benchmark (nil: 1).
	trials func(bench.Entry) int
	// grid is the lattice of an n-qubit benchmark (nil: grid.Rect, the
	// paper's M×(M−1)).
	grid func(n int) *grid.Grid
}

// allTrials is the trials of an arm that averages o.Trials seeds on
// every benchmark.
func (o Options) allTrials(bench.Entry) int { return o.Trials }

// measure runs every arm on every benchmark, each benchmark's arms in
// order on one built circuit, and returns ms[a][b]: arm a's measurement
// on benchmark b.
func measure(o Options, entries []bench.Entry, arms []arm) ([][]Measurement, error) {
	ms := make([][]Measurement, len(arms))
	for _, e := range entries {
		c := e.Build()
		for i, a := range arms {
			trials, g := 1, grid.Rect
			if a.trials != nil {
				trials = a.trials(e)
			}
			if a.grid != nil {
				g = a.grid
			}
			m, err := average(c, g(e.N), a.sp, o.Seed, trials, o.Metrics)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", e.Name, a.name, err)
			}
			ms[i] = append(ms[i], m)
		}
	}
	return ms, nil
}

// Row is one arm of a normalized comparison: its latency, runtime and
// ResUtil as geomean ratios to the reference arm's over the benchmarks
// (1.0 = parity, >1 = more than the reference).
type Row struct {
	Name                      string
	Latency, Runtime, ResUtil float64
}

// normalize returns each arm's Row against arm ref, in arm order.
func normalize(arms []arm, ms [][]Measurement, ref int) []Row {
	series := func(ms []Measurement) (lat, rt, util []float64) {
		for _, m := range ms {
			lat = append(lat, float64(m.Latency))
			rt = append(rt, seconds(m.Runtime))
			util = append(util, m.ResUtil)
		}
		return lat, rt, util
	}
	refLat, refRt, refUtil := series(ms[ref])
	rows := make([]Row, len(arms))
	for i, a := range arms {
		lat, rt, util := series(ms[i])
		rows[i] = Row{
			Name:    a.name,
			Latency: geomeanRatio(lat, refLat, 1),
			Runtime: geomeanRatio(rt, refRt, rtFloor),
			ResUtil: geomeanRatio(util, refUtil, 1e-6),
		}
	}
	return rows
}

// Comparison is a normalized multi-arm report: Figs. 8a–8c, Fig. 10 and
// the threshold and path-finder ablations.
type Comparison struct {
	Title string
	// Header names the name column; a tab in it, and in the row names,
	// splits the name into several columns.
	Header string
	// ResUtil prints the normalized ResUtil column.
	ResUtil bool
	// Rows are the arms in print order.
	Rows []Row
}

// compare measures arms over the scaled Table 1 benchmarks and returns
// rep with its rows normalized to arm ref.
func compare(o Options, arms []arm, ref int, rep *Comparison) (*Comparison, error) {
	ms, err := measure(o, o.entries(), arms)
	if err != nil {
		return nil, err
	}
	rep.Rows = normalize(arms, ms, ref)
	return rep, nil
}

// Print renders the report as a normalized table.
func (r *Comparison) Print(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tnorm.latency\tnorm.runtime", r.Header)
	if r.ResUtil {
		fmt.Fprint(tw, "\tnorm.resutil")
	}
	fmt.Fprintln(tw)
	for _, a := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f", a.Name, a.Latency, a.Runtime)
		if r.ResUtil {
			fmt.Fprintf(tw, "\t%.3f", a.ResUtil)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Arm returns the named row, if present.
func (r *Comparison) Arm(name string) (Row, bool) {
	for _, a := range r.Rows {
		if a.Name == name {
			return a, true
		}
	}
	return Row{}, false
}

// runOn maps a circuit on its paper grid (rectangular M×(M−1), per §4.6)
// through the sp pipeline and returns the measurement. rng drives the
// spec's randomized components (nil = seed 1); reg (may be nil)
// aggregates the compile into a metrics registry. The schedule is
// validated — a harness that reports metrics for unexecutable schedules
// would be meaningless.
func runOn(c *circuit.Circuit, g *grid.Grid, sp core.Spec, rng *rand.Rand, reg *obs.Registry) (Measurement, error) {
	res, err := core.Run(c, g, sp, core.RunOptions{Rng: rng, Metrics: reg})
	if err != nil {
		return Measurement{}, err
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		return Measurement{}, fmt.Errorf("invalid schedule: %w", err)
	}
	return Measurement{Latency: res.Latency, Runtime: res.Runtime, ResUtil: res.ResUtil}, nil
}

// average runs the sp pipeline trials times with distinct seeds and
// averages.
func average(c *circuit.Circuit, g *grid.Grid, sp core.Spec, seed int64, trials int, reg *obs.Registry) (Measurement, error) {
	var sumL, sumU float64
	var sumR time.Duration
	for t := 0; t < trials; t++ {
		m, err := runOn(c, g, sp, rand.New(rand.NewSource(seed+int64(t))), reg)
		if err != nil {
			return Measurement{}, err
		}
		sumL += float64(m.Latency)
		sumR += m.Runtime
		sumU += m.ResUtil
	}
	return Measurement{
		Latency: int(math.Round(sumL / float64(trials))),
		Runtime: sumR / time.Duration(trials),
		ResUtil: sumU / float64(trials),
	}, nil
}

// geomeanRatio returns the geometric mean of xs[i]/ys[i], skipping pairs
// where the denominator is zero (adding a floor keeps sub-microsecond
// runtimes from exploding the ratio).
func geomeanRatio(xs, ys []float64, floor float64) float64 {
	sum, n := 0.0, 0
	for i := range xs {
		x, y := xs[i], ys[i]
		if x < floor {
			x = floor
		}
		if y < floor {
			y = floor
		}
		if y == 0 {
			continue
		}
		sum += math.Log(x / y)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func seconds(d time.Duration) float64 { return d.Seconds() }
