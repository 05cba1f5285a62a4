package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	_ "hilight/internal/autobraid" // registers the autobraid-sp/-full method specs

	"hilight/internal/bench"
	"hilight/internal/circuit"
	"hilight/internal/core"
)

// Fig9Point is one (benchmark, size, method) measurement of the
// scalability analysis.
type Fig9Point struct {
	Bench  string
	N      int
	Method string
	Measurement
}

// Fig9Report holds the scalability sweep series.
type Fig9Report struct {
	Points []Fig9Point
}

// Series returns the points of one benchmark and method in size order.
func (r *Fig9Report) Series(benchName, method string) []Fig9Point {
	var out []Fig9Point
	for _, p := range r.Points {
		if p.Bench == benchName && p.Method == method {
			out = append(out, p)
		}
	}
	return out
}

// Print renders the sweep as a table grouped by benchmark and size.
func (r *Fig9Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig. 9 — scalability (latency and runtime by circuit size)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tn\tmethod\tlatency\truntime[s]")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.4f\n", p.Bench, p.N, p.Method, p.Latency, seconds(p.Runtime))
	}
	tw.Flush()
}

// Fig9Methods are the four curves of Fig. 9; each is a registered method
// spec, resolved by name.
var Fig9Methods = []string{"baseline", "autobraid-full", "hilight-gm", "hilight-map"}

// RunFig9 reproduces the scalability analysis: QFT, BV, CC and Ising
// sweeps mapped by the four methods. Scale bounds the largest instances
// (small ≤ 32 qubits, medium ≤ 200, full = the paper's largest).
func RunFig9(o Options) (*Fig9Report, error) {
	o = o.fill()
	sizes := map[string][]int{
		"QFT":   {10, 16, 32},
		"BV":    {10, 16, 32},
		"CC":    {11, 18, 32},
		"Ising": {10, 16, 32},
	}
	switch o.Scale {
	case ScaleMedium:
		sizes = map[string][]int{
			"QFT":   {10, 16, 100, 150, 200},
			"BV":    {10, 100, 150, 200},
			"CC":    {11, 18, 100, 200},
			"Ising": {10, 16, 100, 200},
		}
	case ScaleFull:
		sizes = map[string][]int{
			"QFT":   {10, 16, 100, 150, 200, 400, 500},
			"BV":    {10, 100, 150, 200},
			"CC":    {11, 18, 100, 200, 300},
			"Ising": {10, 16, 100, 500, 1000},
		}
	}
	builders := map[string]func(int) *circuit.Circuit{
		"QFT": bench.QFT,
		"BV":  bench.BV,
		"CC":  bench.CC,
		"Ising": func(n int) *circuit.Circuit {
			steps := 5
			if n > 100 {
				steps = 1
			}
			return bench.Ising(n, steps)
		},
	}
	// The size sweep is the benchmark list: Function holds the family.
	var entries []bench.Entry
	for _, name := range []string{"QFT", "BV", "CC", "Ising"} {
		build := builders[name]
		for _, n := range sizes[name] {
			entries = append(entries, bench.Entry{
				Function: name, Name: fmt.Sprintf("%s-%d", name, n), N: n,
				Build: func() *circuit.Circuit { return build(n) },
			})
		}
	}
	arms := make([]arm, len(Fig9Methods))
	for i, method := range Fig9Methods {
		arms[i] = arm{name: method, sp: core.MustMethod(method)}
	}
	ms, err := measure(o, entries, arms)
	if err != nil {
		return nil, err
	}
	rep := &Fig9Report{}
	for b, e := range entries {
		for i, method := range Fig9Methods {
			rep.Points = append(rep.Points, Fig9Point{Bench: e.Function, N: e.N, Method: method, Measurement: ms[i][b]})
		}
	}
	return rep, nil
}
