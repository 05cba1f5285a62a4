package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hilight/internal/bench"
	"hilight/internal/core"
)

// Table1Row is one benchmark line of Table 1: the three frameworks'
// latency, runtime and resource utilization.
type Table1Row struct {
	Type, Function, Name string
	N, Gates             int
	SP, Full, HiLight    Measurement
}

// Table1Report is the full table plus the normalized summary row.
type Table1Report struct {
	Rows []Table1Row
	// SP and Full are autobraid-sp and autobraid-full normalized to
	// hilight-map (the paper's "Normalized to Ours" row; 1.0 = parity,
	// >1 = worse than HiLight).
	SP, Full Row
}

// RunTable1 reproduces Table 1: every benchmark mapped by autobraid-sp,
// autobraid-full and hilight-map on the rectangular M×(M−1) grid.
func RunTable1(o Options) (*Table1Report, error) {
	o = o.fill()
	// QFT rows average the pattern-matched random layout (§3.1.2).
	qftTrials := func(e bench.Entry) int {
		if e.Function == "Quantum Fourier Transform" {
			return o.Trials
		}
		return 1
	}
	arms := []arm{
		{name: "autobraid-sp", sp: core.MustMethod("autobraid-sp")},
		{name: "autobraid-full", sp: core.MustMethod("autobraid-full")},
		{name: "hilight-map", sp: core.MustMethod("hilight-map"), trials: qftTrials},
	}
	entries := o.entries()
	ms, err := measure(o, entries, arms)
	if err != nil {
		return nil, err
	}
	rep := &Table1Report{}
	for b, e := range entries {
		rep.Rows = append(rep.Rows, Table1Row{
			Type: e.Type, Function: e.Function, Name: e.Name, N: e.N, Gates: e.Gates,
			SP: ms[0][b], Full: ms[1][b], HiLight: ms[2][b],
		})
	}
	norm := normalize(arms, ms, 2)
	rep.SP, rep.Full = norm[0], norm[1]
	return rep, nil
}

// Print renders the report in the paper's layout.
func (r *Table1Report) Print(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — mapping-level comparison (grid M×(M−1))")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tn\tg\tsp.lat\tsp.rt[s]\tsp.util\tfull.lat\tfull.rt[s]\tfull.util\tours.lat\tours.rt[s]\tours.util")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.2f\t%d\t%.3f\t%.2f\t%d\t%.3f\t%.2f\n",
			row.Name, row.N, row.Gates,
			row.SP.Latency, seconds(row.SP.Runtime), row.SP.ResUtil,
			row.Full.Latency, seconds(row.Full.Runtime), row.Full.ResUtil,
			row.HiLight.Latency, seconds(row.HiLight.Runtime), row.HiLight.ResUtil)
	}
	fmt.Fprintf(tw, "normalized to ours\t\t\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t1.000\t1.000\t1.000\n",
		r.SP.Latency, r.SP.Runtime, r.SP.ResUtil,
		r.Full.Latency, r.Full.Runtime, r.Full.ResUtil)
	tw.Flush()
}
