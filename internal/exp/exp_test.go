package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// smallOpts keeps experiment tests fast: tiny benchmarks, few trials.
func smallOpts() Options {
	return Options{Scale: ScaleSmall, Seed: 7, Trials: 3}
}

func TestOptionsFillAndEntries(t *testing.T) {
	o := Options{}.fill()
	if o.Scale != ScaleSmall || o.Trials != 5 || o.Seed != 1 {
		t.Errorf("defaults wrong: %+v", o)
	}
	small := Options{Scale: ScaleSmall}.entries()
	full := Options{Scale: ScaleFull}.entries()
	if len(small) >= len(full) {
		t.Errorf("small scale (%d) should trim entries (%d)", len(small), len(full))
	}
	if len(full) != 36 {
		t.Errorf("full scale entries = %d, want 36", len(full))
	}
	for _, e := range small {
		if e.Gates > ScaleSmall.maxGates() {
			t.Errorf("entry %s over the small budget", e.Name)
		}
	}
}

func TestGeomeanRatio(t *testing.T) {
	got := geomeanRatio([]float64{2, 8}, []float64{1, 2}, 0.001)
	if got < 2.82 || got > 2.84 { // sqrt(2*4) = 2.828
		t.Errorf("geomean = %g", got)
	}
	if geomeanRatio(nil, nil, 1) != 0 {
		t.Error("empty geomean should be 0")
	}
	// Floor prevents explosion on near-zero denominators.
	capped := geomeanRatio([]float64{1}, []float64{1e-12}, 0.5)
	if capped > 2.1 {
		t.Errorf("floored ratio = %g", capped)
	}
}

func TestRunTable1SmallShape(t *testing.T) {
	rep, err := RunTable1(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Paper shape: hilight-map no worse than either AutoBraid variant on
	// latency and ResUtil (geomean ≥ 1 means the baseline is worse).
	if rep.SP.Latency < 1 {
		t.Errorf("autobraid-sp latency geomean %.3f < 1: hilight lost", rep.SP.Latency)
	}
	if rep.Full.Latency < 1 {
		t.Errorf("autobraid-full latency geomean %.3f < 1: hilight lost", rep.Full.Latency)
	}
	if rep.SP.ResUtil < 1 {
		t.Errorf("autobraid-sp ResUtil geomean %.3f < 1", rep.SP.ResUtil)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "normalized to ours") || !strings.Contains(out, "4gt11_82") {
		t.Errorf("print output malformed:\n%s", out)
	}
	// Exact latencies from Table 1 for the fully-deterministic rows.
	for _, row := range rep.Rows {
		switch row.Name {
		case "BV-10":
			if row.HiLight.Latency != 9 {
				t.Errorf("BV-10 hilight latency = %d, want 9", row.HiLight.Latency)
			}
		case "CC-11":
			if row.HiLight.Latency != 10 {
				t.Errorf("CC-11 hilight latency = %d, want 10", row.HiLight.Latency)
			}
		case "Ising-10":
			if row.HiLight.Latency != 20 {
				t.Errorf("Ising-10 hilight latency = %d, want 20", row.HiLight.Latency)
			}
		}
	}
}

func TestRunFig8aShape(t *testing.T) {
	rep, err := RunFig8a(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("arms = %d", len(rep.Rows))
	}
	proposed, _ := rep.Arm("proposed")
	if proposed.Latency != 1 || proposed.Runtime != 1 {
		t.Errorf("proposed arm not the reference: %+v", proposed)
	}
	random, _ := rep.Arm("random")
	if random.Latency < 1 {
		t.Errorf("random placement latency %.3f should be worse than proposed", random.Latency)
	}
	gm, _ := rep.Arm("gm")
	if gm.Runtime < 1 {
		t.Errorf("gm runtime %.3f should exceed proposed (node/edge graph cost)", gm.Runtime)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 8a") {
		t.Error("title missing")
	}
}

func TestRunFig8bShape(t *testing.T) {
	rep, err := RunFig8b(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("arms = %d", len(rep.Rows))
	}
	prop, _ := rep.Arm("proposed")
	if prop.Latency != 1 {
		t.Error("proposed not reference")
	}
	// LLG's recurrent-graph runtime cost only shows on large ready sets
	// (see BenchmarkOrderingStrategies); at small scale assert only that
	// LLG brings no significant latency win over the proposed ordering
	// (the paper reports a slight LLG latency *increase*).
	llg, _ := rep.Arm("llg")
	if llg.Latency < 0.95 {
		t.Errorf("llg latency %.3f significantly beats proposed", llg.Latency)
	}
}

func TestRunFig8cShape(t *testing.T) {
	rep, err := RunFig8c(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	full := rep.Rows[3]
	if full.Latency != 1 || full.Runtime != 1 {
		t.Errorf("reference row not 1.0: %+v", full)
	}
	no16 := rep.Rows[4]
	if no16.Runtime < 1 {
		t.Errorf("16-path search runtime %.3f should exceed the fast path-finder", no16.Runtime)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 8c") {
		t.Error("title missing")
	}
}

func TestRunFig9Shape(t *testing.T) {
	rep, err := RunFig9(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, benchName := range []string{"QFT", "BV", "CC", "Ising"} {
		for _, method := range Fig9Methods {
			s := rep.Series(benchName, method)
			if len(s) != 3 {
				t.Errorf("%s/%s series = %d points", benchName, method, len(s))
			}
		}
	}
	// Aggregate per family: hilight-map's total latency stays within 5%
	// of the baseline's (the paper's own Table 1 has single QFT points
	// where AutoBraid edges HiLight out; the aggregate is what it claims).
	for _, benchName := range []string{"QFT", "BV", "CC", "Ising"} {
		base, ours := 0, 0
		for _, p := range rep.Series(benchName, "baseline") {
			base += p.Latency
		}
		for _, p := range rep.Series(benchName, "hilight-map") {
			ours += p.Latency
		}
		if float64(ours) > 1.05*float64(base) {
			t.Errorf("%s: hilight total latency %d vs baseline %d", benchName, ours, base)
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 9") {
		t.Error("title missing")
	}
}

func TestRunFig10Shape(t *testing.T) {
	rep, err := RunFig10(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("arms = %d", len(rep.Rows))
	}
	mapArm, ok := rep.Arm("hilight-map")
	if !ok || mapArm.Latency != 1 || mapArm.Runtime != 1 {
		t.Errorf("hilight-map not the reference: %+v", mapArm)
	}
	ab, _ := rep.Arm("autobraid-full")
	if ab.Latency < 1 {
		t.Errorf("autobraid-full latency %.3f should exceed hilight-map", ab.Latency)
	}
	pg, _ := rep.Arm("hilight-pg")
	if pg.Latency > 1.01 {
		t.Errorf("hilight-pg latency %.3f should not exceed hilight-map", pg.Latency)
	}
	hw, _ := rep.Arm("hilight-hw")
	if hw.Latency > 1.25 {
		t.Errorf("hilight-hw latency %.3f blew past the small §4.6 cost", hw.Latency)
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "Fig. 10") {
		t.Error("title missing")
	}
}

func TestMeasurementAverage(t *testing.T) {
	// average over one trial equals a direct run (deterministic config).
	o := smallOpts()
	entries := o.entries()
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	if seconds(time.Second) != 1 {
		t.Error("seconds helper wrong")
	}
}

// A Comparison prints its title, a header and one line per row. Tabs in
// the header and the row names split them into columns, as Fig. 8c's
// four step cells do, and the resutil column prints only when asked.
func TestComparisonPrint(t *testing.T) {
	rep := &Comparison{
		Title:  "T",
		Header: "a\tb",
		Rows: []Row{
			{Name: "x\t-", Latency: 1, Runtime: 2, ResUtil: 3},
			{Name: "yy\tz", Latency: 0.5, Runtime: 1.25, ResUtil: 1},
		},
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	want := "T\n" +
		"a   b  norm.latency  norm.runtime\n" +
		"x   -  1.000         2.000\n" +
		"yy  z  0.500         1.250\n"
	if buf.String() != want {
		t.Errorf("print:\n%s\nwant:\n%s", buf.String(), want)
	}
	rep.ResUtil = true
	buf.Reset()
	rep.Print(&buf)
	want = "T\n" +
		"a   b  norm.latency  norm.runtime  norm.resutil\n" +
		"x   -  1.000         2.000         3.000\n" +
		"yy  z  0.500         1.250         1.000\n"
	if buf.String() != want {
		t.Errorf("print with resutil:\n%s\nwant:\n%s", buf.String(), want)
	}
	if a, ok := rep.Arm("yy\tz"); !ok || a.Runtime != 1.25 {
		t.Errorf("Arm(yy z) = %+v, %v", a, ok)
	}
	if _, ok := rep.Arm("x"); ok {
		t.Error("Arm matched a name prefix")
	}
}
