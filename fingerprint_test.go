package hilight_test

import (
	"bytes"
	"testing"
	"time"

	"hilight"
)

func fp(t *testing.T, c *hilight.Circuit, g *hilight.Grid, opts ...hilight.Option) string {
	t.Helper()
	d, err := hilight.Fingerprint(c, g, opts...)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return d
}

func TestFingerprintStable(t *testing.T) {
	c := hilight.QFT(8)
	g := hilight.RectGrid(8)
	a := fp(t, c, g)
	// Recompute from independently rebuilt inputs: the digest is a pure
	// function of content, not of pointer identity or call order.
	b := fp(t, hilight.QFT(8), hilight.RectGrid(8))
	if a != b {
		t.Fatalf("fingerprint not stable across rebuilt inputs: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("want 64 hex chars, got %d (%s)", len(a), a)
	}
	// Defaults are spelled out, so an explicit default equals no option.
	if d := fp(t, c, g, hilight.WithMethod("hilight"), hilight.WithSeed(1)); d != a {
		t.Errorf("explicit defaults changed fingerprint")
	}
	// Instrumentation options never participate.
	if d := fp(t, c, g, hilight.WithMetrics(hilight.NewMetrics()), hilight.WithObserver(func(hilight.CycleStats) {})); d != a {
		t.Errorf("instrumentation options changed fingerprint")
	}
}

// TestFingerprintExcludesParallelKnobs pins the cache-key contract: the
// options Fingerprint excludes are output-neutral. Compiles differing
// only in them share a fingerprint, on parallel and sequential methods
// alike, and a hilight-parallel compile under each of them encodes byte
// for byte the same schedule — one fingerprint, one schedule.
func TestFingerprintExcludesParallelKnobs(t *testing.T) {
	excluded := map[string]hilight.Option{
		"workers-1":    hilight.WithRouteWorkers(1),
		"workers-2":    hilight.WithRouteWorkers(2),
		"workers-8":    hilight.WithRouteWorkers(8),
		"workers-auto": hilight.WithRouteWorkers(0),
		"observer":     hilight.WithObserver(func(hilight.CycleStats) {}),
		"metrics":      hilight.WithMetrics(hilight.NewMetrics()),
		"timeout":      hilight.WithTimeout(time.Minute),
	}
	c := hilight.QFT(8)
	g := hilight.RectGrid(8)
	for _, method := range []string{"hilight", "hilight-parallel"} {
		base := fp(t, c, g, hilight.WithMethod(method))
		for name, opt := range excluded {
			if d := fp(t, c, g, hilight.WithMethod(method), opt); d != base {
				t.Errorf("%s: option %q changed the fingerprint", method, name)
			}
		}
	}

	qft16, _ := hilight.Benchmark("QFT-16")
	g16 := hilight.RectGrid(qft16.NumQubits)
	encode := func(opts ...hilight.Option) []byte {
		t.Helper()
		res, err := hilight.Compile(qft16, g16, append([]hilight.Option{hilight.WithMethod("hilight-parallel")}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := hilight.EncodeScheduleBinary(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := encode()
	for name, opt := range excluded {
		if !bytes.Equal(encode(opt), want) {
			t.Errorf("hilight-parallel QFT-16: option %q changed the schedule", name)
		}
	}

	// The method itself still participates: sequential vs parallel presets
	// are distinct cache keys.
	if fp(t, c, g, hilight.WithMethod("hilight")) == fp(t, c, g, hilight.WithMethod("hilight-parallel")) {
		t.Error("hilight and hilight-parallel methods collide")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	c := hilight.QFT(8)
	g := hilight.RectGrid(8)
	base := fp(t, c, g)
	variants := map[string]string{
		"circuit":  fp(t, hilight.QFT(9), hilight.RectGrid(8)),
		"grid":     fp(t, c, hilight.NewGrid(4, 3)),
		"method":   fp(t, c, g, hilight.WithMethod("autobraid-sp")),
		"seed":     fp(t, c, g, hilight.WithSeed(2)),
		"qco-on":   fp(t, c, g, hilight.WithQCO(true)),
		"qco-off":  fp(t, c, g, hilight.WithQCO(false)),
		"compact":  fp(t, c, g, hilight.WithCompaction()),
		"fallback": fp(t, c, g, hilight.WithFallback("autobraid-sp")),
		"defects":  fp(t, c, g, hilight.WithDefects(&hilight.DefectMap{Tiles: []int{0}})),
	}
	seen := map[string]string{base: "base"}
	for name, d := range variants {
		if prev, dup := seen[d]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, d)
		}
		seen[d] = name
	}
	// QCO on vs off vs unset are three distinct states.
	if variants["qco-on"] == variants["qco-off"] {
		t.Error("qco=true and qco=false collide")
	}
}

func TestFingerprintGridState(t *testing.T) {
	c := hilight.QFT(8)
	plain := hilight.SquareGrid(9)
	base := fp(t, c, plain)

	// A factory reservation changes the digest.
	withFactory, err := hilight.GridWithFactory(8, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if withFactory.W == plain.W && withFactory.H == plain.H {
		if d := fp(t, c, withFactory); d == base {
			t.Error("factory reservation did not change fingerprint")
		}
	}

	// Defects baked into the grid change the digest the same as the
	// equivalent WithDefects option leaves the pristine-grid digest alone.
	degraded := plain.Clone()
	if err := degraded.ApplyDefects(&hilight.DefectMap{Tiles: []int{3}}); err != nil {
		t.Fatal(err)
	}
	if d := fp(t, c, degraded); d == base {
		t.Error("grid defects did not change fingerprint")
	}
}

func TestFingerprintDefectCanonicalization(t *testing.T) {
	c := hilight.QFT(8)
	g := hilight.RectGrid(8)
	a := fp(t, c, g, hilight.WithDefects(&hilight.DefectMap{
		Tiles:    []int{5, 1},
		Vertices: []int{7, 2},
		Channels: [][2]int{{1, 0}},
	}))
	b := fp(t, c, g, hilight.WithDefects(&hilight.DefectMap{
		Tiles:    []int{1, 5},
		Vertices: []int{2, 7},
		Channels: [][2]int{{0, 1}},
	}))
	if a != b {
		t.Errorf("permuted defect maps fingerprint differently: %s vs %s", a, b)
	}
}

func TestFingerprintNilInputs(t *testing.T) {
	if _, err := hilight.Fingerprint(nil, hilight.RectGrid(4)); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := hilight.Fingerprint(hilight.QFT(4), nil); err == nil {
		t.Error("nil grid accepted")
	}
}

// TestEncodersByteStable audits the JSON encoders the fingerprint and the
// golden fixtures depend on: encoding the same schedule or defect map
// repeatedly must produce identical bytes (no map-ordering
// nondeterminism).
func TestEncodersByteStable(t *testing.T) {
	_, d := hilight.InjectDefects(hilight.NewGrid(6, 6), 0.08, 7)
	if d.Empty() {
		t.Fatal("fault injection produced no defects; raise the rate")
	}
	ed1, err := hilight.EncodeDefects(d)
	if err != nil {
		t.Fatal(err)
	}
	ed2, err := hilight.EncodeDefects(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ed1, ed2) {
		t.Error("EncodeDefects is not byte-stable")
	}

	g := hilight.NewGrid(6, 6)
	res, err := hilight.Compile(hilight.QFT(8), g, hilight.WithDefects(d))
	if err != nil {
		t.Fatal(err)
	}
	es1, err := hilight.EncodeScheduleJSON(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	es2, err := hilight.EncodeScheduleJSON(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(es1, es2) {
		t.Error("EncodeScheduleJSON is not byte-stable")
	}
	// The embedded defect map must come out sorted regardless of how the
	// grid accumulated its defects (Grid.Defects sorts).
	rt, err := hilight.DecodeScheduleJSON(es1)
	if err != nil {
		t.Fatal(err)
	}
	es3, err := hilight.EncodeScheduleJSON(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(es1, es3) {
		t.Error("schedule JSON does not round-trip byte-stably")
	}
}
