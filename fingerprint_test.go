package hilight_test

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"hilight"
	"hilight/internal/circuit"
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

// TestFingerprintDigests pins the exact digest of every input class the
// canonical form renders: every Table 1 circuit, each digested option,
// reserved tiles, both defect sections and the gate kinds and float
// parameters the QASM writer spells out. Journals and caches hold
// digests that earlier 202s promised, so a change of any one is a
// fingerprintVersion bump, never a silent rekey.
func TestFingerprintDigests(t *testing.T) {
	table1 := map[string]string{
		"4gt11_82":      "f3eaf9eff9c086708977a3f5bf0c26e6b530ed2432402c60f9b987ec5e2df784",
		"4gt5_75":       "72b93e0c5c8eecae69789a758e7889dd3a44eaf5abfa6f4e8ed802768613a4c6",
		"BV-10":         "d3ceca0cea14400df3b73e4ad517dc63114b3b06770520eae06f0b79db9bad85",
		"BV-100":        "43a588a529692a4377b0e63d02939d260eb092fa48c30501fe31de25dc7d75b2",
		"BV-150":        "a3650bcb5ad8bee307f5e401031153d074b437d7f297a2c11ac8e9fb293692a2",
		"BV-200":        "a03c3e82d494088bfb84c176079f6be043499d24069206bd90679dab510ee730",
		"BWT-126":       "e1271115c5f2ff015c03207e9dda096c2ada2e4edae35def3b7557cf24a4abbd",
		"BWT-254":       "1c9ca66438039c18f545262d5e0c8b7e0345c94d291288f6a86bd05b75135635",
		"CC-100":        "d1eee21545a80ce8bb65d83e78c611038ce912a61d445408f01d797ec8a30e7d",
		"CC-11":         "4cfcc8b7dde431efde4d2edaab7f537e9c1dab7b961671353baf4b9b52b4d9b8",
		"CC-18":         "1902d1adf13d3b75a7b2a7b307d6f7a10d8e22e19d9ea2145f4a0dbe13e2bddf",
		"CC-200":        "57475043d15cf98425c99d2bdb60ec7f7e56c16c8031c37d015450a55c7cfc5c",
		"CC-300":        "d34f50e80e7761907271dd01594a1c5d46ec1a925b7c41be3eafefceb40725e1",
		"Ising-10":      "95563910ccd466e4e512b0cf82b05af3bd4f39a89066ab2c6dab18231c299d67",
		"Ising-1000":    "a691692c4ef8170f72a6a09109dd372c30a7b38cd588fa9f84cd284485e0b3ce",
		"Ising-13":      "1b72c64d38e56847e4aa72d3dae448b9994435e04d3c4c3f898601f74cf031f4",
		"Ising-16":      "4d10a108753202a76ccaba03b5b78df1b45b8cdad3d1efe5077bc23efaef5fc6",
		"Ising-500":     "5f538e3410b150c3ab45c4bd3265f597b25358e8229d9cfb18a0fd4764c4f272",
		"QAOA-100":      "2e6fc388f666fccb01dc29e0e7753f07ca8299bdfe10041346486cfdce643b18",
		"QFT-10":        "c046ecb1a27e9a76085db019a4a677b2656d56af30d79742b17d075aac5ee289",
		"QFT-100":       "25de0617751eccd06c2be6b13dbfc641f04d3c6813ef61b61ef0acdccd48fff2",
		"QFT-150":       "2b6e7e8a3140ba3e8cfcffd1d5e5cdd143d963c3dc9d146fc3278b3f1a21a151",
		"QFT-16":        "a3ed57eaef4e0f321a663566f2a90b510b6be923da1a1b6641e22daaccbd733a",
		"QFT-200":       "fab7fae974a0717d2b56b04ad1c5f26dc0f9496e9c22afa6a9629f3bccb1c051",
		"QFT-400":       "5c7d540f9d8ef86aeca9dda13fdfff388be078e110f2270116b3d3d9acf08110",
		"QFT-500":       "ed34812e98df0f2d2c0ac9e3cea6b6078015abc409e852b3d54a7a2828a40c8b",
		"Shor-471":      "616ebe1d3845b66d7df5cd3b1130360fffdedd6758c3a5c7c989879fa1b05ac7",
		"alu-v0_26":     "66db4cc7e6a3891983a3fb419ffaa1cf834057c8671f9edd8f0f6b1e5f4accd0",
		"rd32_270":      "37ee8e2d104ade9fa6c59f27aec2a0ff4414eb4ffc01efbb8b5e55eb7665eb11",
		"sqrt8_260":     "b427902be97cdd89b60c41dddf288d19dfadae0bd11c8e7df87c2fdf56fa0e57",
		"squar5_261":    "437c7173657d62501beb41f03ca54dc3aaf8c829b1cd6a07c001d2586eb5aba5",
		"square_root_7": "757cc962a169f4afa8248718c2fcf15e78fb1136ec7e0a8713f19ff78289865b",
		"urf1_278":      "3688f9841af826356c205e17cbe4485085130e7418a7c6f92fe031c573100f15",
		"urf2_277":      "ab90cfde9c7eb369651c0f39c317c3894b35ac6ef8e8e782c93dc577afcee8b6",
		"urf5_158":      "28fbea47392367f7523b0d71d7c4bc5c8e58bff83259a7eb68cdc2e5891928c2",
		"urf5_280":      "48d5e0f0bc2352d97e0caa151d86fadd0d931e514e1b3b8829de4af4f3d4d727",
	}
	for _, name := range hilight.BenchmarkNames() {
		name := name
		t.Run("table1/"+name, func(t *testing.T) {
			c, _ := hilight.Benchmark(name)
			if got, want := fp(t, c, hilight.RectGrid(c.NumQubits)), table1[name]; got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
	if len(table1) != len(hilight.BenchmarkNames()) {
		t.Errorf("%d Table 1 digests pinned, want %d", len(table1), len(hilight.BenchmarkNames()))
	}

	qft16, _ := hilight.Benchmark("QFT-16")
	g16 := hilight.RectGrid(qft16.NumQubits)
	factory, err := hilight.GridWithFactory(16, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if factory.Capacity() == factory.Tiles() {
		t.Fatal("factory reserved no tile")
	}
	baked, _ := hilight.InjectDefects(hilight.NewGrid(6, 6), 0.08, 7)
	if d := baked.Defects(); len(d.Tiles) == 0 || len(d.Vertices) == 0 || len(d.Channels) == 0 {
		t.Fatalf("baked defect map %+v lacks a defect class", d)
	}
	// Permuted entries and reversed channel endpoints: the digest is the
	// sorted, normalized map's.
	permuted := &hilight.DefectMap{
		Tiles:    []int{29, 4, 17},
		Vertices: []int{40, 3, 22},
		Channels: [][2]int{{12, 11}, {3, 2}, {30, 23}},
	}
	sorted := &hilight.DefectMap{
		Tiles:    []int{4, 17, 29},
		Vertices: []int{3, 22, 40},
		Channels: [][2]int{{2, 3}, {11, 12}, {23, 30}},
	}
	qft8 := hilight.QFT(8)
	cases := []struct {
		name   string
		digest func(t *testing.T) string
		want   string
	}{
		{"method", func(t *testing.T) string { return fp(t, qft16, g16, hilight.WithMethod("hilight-map")) }, "1d116d62daa3e003675ac27d2815f08566dbf423ccc5a99051eb4f6b76dc4d7b"},
		{"seed", func(t *testing.T) string { return fp(t, qft16, g16, hilight.WithSeed(7)) }, "98f3d4ceddce276cf63db1a65cdd7d410be6e91b2d0c98accc8f726e229c3faf"},
		{"qco off", func(t *testing.T) string { return fp(t, qft16, g16, hilight.WithQCO(false)) }, "328b15857b03bfe7220521bf33294e5502a0a736993e8a46f2b289c7c3b5bda0"},
		{"compaction", func(t *testing.T) string { return fp(t, qft16, g16, hilight.WithCompaction()) }, "f31b2eb4adf782a9e2b0948403fedadeecf2ae0ba0d9e7883ce9535366c42b29"},
		{"fallback chain", func(t *testing.T) string {
			return fp(t, qft16, g16, hilight.WithFallback("hilight-map", "autobraid-sp"))
		}, "c3dd72be210f8f4b9aed36e538168ebbbc25aa235feea5fcdb37ab9464efbced"},
		{"factory grid", func(t *testing.T) string { return fp(t, qft16, factory) }, "6e5f09a85974b36a549a1a73244e7fd17eb47f615db3d0390782faabd1ab0b21"},
		{"defects", func(t *testing.T) string {
			d := fp(t, qft8, baked, hilight.WithDefects(permuted))
			if s := fp(t, qft8, baked, hilight.WithDefects(sorted)); s != d {
				t.Errorf("sorted map digest %s, permuted %s", s, d)
			}
			return d
		}, "419ded48d1f4af1911aee71c2796cc8bb8018874e27e46ce65f3d7651aa722cb"},
		{"gate kinds and special floats", func(t *testing.T) string {
			return fp(t, specialCircuit(), hilight.RectGrid(4))
		}, "11282bda63507b9f315592f77265eed42a0b525bbdb8bfc131191ccb5ac19c77"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.digest(t); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

// specialCircuit holds every gate form the QASM writer spells out:
// measure, reset, swap, cz, u2 and u3 beside one-parameter rotations
// whose angles are -0, ±Inf, NaN, the smallest subnormal and 1e300.
func specialCircuit() *hilight.Circuit {
	c := hilight.NewCircuit("specials", 4)
	c.Add1(hilight.H, 0)
	c.Add2(hilight.CX, 0, 1)
	c.Add2(hilight.CZ, 1, 2)
	c.Add2(hilight.SWAP, 2, 3)
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300}
	for i, k := range []hilight.Kind{circuit.RX, circuit.RY, circuit.RZ, circuit.U1} {
		for j, v := range specials {
			c.AddRot(k, (i+j)%4, v)
		}
	}
	u2 := circuit.NewGate1(circuit.U2, 1)
	u2.Params = [3]float64{math.Pi / 2, -math.Inf(1), 0}
	u3 := circuit.NewGate1(circuit.U3, 2)
	u3.Params = [3]float64{5e-324, math.NaN(), -1e300}
	c.Append(u2, u3)
	c.Add1(circuit.Reset, 3)
	c.Add1(hilight.Measure, 0)
	c.Add1(hilight.Measure, 3)
	return c
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

// BenchmarkFingerprint times the request edge's second pass over a
// circuit, the cache key: Table 1 circuits and the ~599k gates of an
// 8 MiB body of CX lines. Run it with `make bench-route`.
func BenchmarkFingerprint(b *testing.B) {
	type benchCase struct {
		name string
		c    *hilight.Circuit
	}
	var cases []benchCase
	for _, name := range []string{"QFT-16", "QFT-100", "urf5_158"} {
		c, _ := hilight.Benchmark(name)
		cases = append(cases, benchCase{name, c})
	}
	const head, line = "OPENQASM 2.0;\nqreg q[2];\n", "cx q[0],q[1];\n"
	cx, err := hilight.ParseQASM("cx", head+strings.Repeat(line, (8<<20-len(head))/len(line)))
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, benchCase{"8MiB-cx", cx})
	for _, tc := range cases {
		g := hilight.RectGrid(tc.c.NumQubits)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hilight.Fingerprint(tc.c, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
