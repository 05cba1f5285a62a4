package hilight_test

// Behavior-preservation goldens: the routing hot path is optimized for
// zero allocations, and these tests pin down that the optimization never
// changes *what* is computed. The golden file records, at seed 1,
//
//   - a schedule fingerprint (FNV-1a over every layer/braid/path) per
//     path-finder on a Table 1 subset, and
//   - latency/ResUtil per public method preset,
//   - a schedule fingerprint of the speculative route step
//     (hilight-map-parallel at one route worker) per Table 1 subset row
//     and defect fixture,
//   - a schedule fingerprint per sequential method on large Table 1
//     circuits, where the lattice is congested enough that Find fails
//     hundreds to thousands of times per compile,
//   - and the route stage's search work (searches and search pops) of
//     those same congested compiles.
//
// Regenerate with `go test -run TestGolden -update` — but only when a
// change is *supposed* to alter schedules; performance work must keep
// this file byte-identical.

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"hilight"
	"hilight/internal/bench"
	"hilight/internal/core"
	"hilight/internal/grid"
	"hilight/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const goldenPath = "testdata/golden_schedules.json"

// goldenFile is the on-disk golden format.
type goldenFile struct {
	// ScheduleHash maps "<benchmark>/<finder>" to the schedule fingerprint.
	ScheduleHash map[string]string `json:"schedule_hash"`
	// Presets maps "<benchmark>/<method>" to "latency/resutil".
	Presets map[string]string `json:"presets"`
	// DefectHash maps "<benchmark>" to the schedule fingerprint of a
	// compile on a defective grid (faultinject rate 5%, seed 1): pins
	// defect-aware routing, not just the pristine path.
	DefectHash map[string]string `json:"defect_hash"`
	// ParallelHash maps "<benchmark>" (and "defect/<benchmark>" for the
	// defect fixtures) to the schedule fingerprint of hilight-map-parallel
	// at one route worker: the speculative step's own output, which
	// presets pins only by latency and ResUtil.
	ParallelHash map[string]string `json:"parallel_hash"`
	// CongestedHash maps "<benchmark>/<method>" to the schedule
	// fingerprint of a seed-1 compile of a large Table 1 circuit. The
	// subset rows above rarely fail a Find; these compiles fail it
	// often, so they pin how each finder handles gates that cannot
	// route this cycle.
	CongestedHash map[string]string `json:"congested_hash"`
	// RouteWork maps each congested_hash key to "<searches>/<pops>", the
	// route stage's searches and search-pops trace counters. Schedules
	// are deterministic, so the work is an exact number: a change that
	// raises it must say why, and regenerate this file with -update.
	RouteWork map[string]string `json:"route_work"`
}

// congestedBenchmarks and congestedMethods span the congested fixtures:
// the paper's method and its mapping-only variant, plus the two
// baselines whose finders (full-16, stack-dfs) are the other complete
// searches.
var (
	congestedBenchmarks = []string{"QFT-100", "BWT-254", "QAOA-100", "Shor-471"}
	congestedMethods    = []string{"hilight", "hilight-map", "baseline", "autobraid-sp"}
)

// goldenBenchmarks is the Table 1 subset the finder-identity test runs:
// every deterministic small row plus one representative per family, kept
// small enough that the exhaustive Full16 finder stays affordable.
var goldenBenchmarks = []string{
	"4gt11_82", "4gt5_75", "rd32_270", "sqrt8_260", "squar5_261",
	"QFT-10", "QFT-16", "BV-10", "CC-11", "Ising-10",
}

// goldenFinders are the registered path-finder names the sweep pins.
func goldenFinders() []string {
	return []string{"astar-closest", "full-16", "stack-dfs", "l-shape"}
}

// hashSchedule fingerprints every braid of every layer, in order.
func hashSchedule(s *sched.Schedule) string {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	putInt := func(v int) {
		buf = buf[:0]
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
		h.Write(buf)
	}
	putInt(len(s.Layers))
	for _, layer := range s.Layers {
		putInt(len(layer))
		for _, b := range layer {
			putInt(b.Gate)
			putInt(b.CtlTile)
			putInt(b.TgtTile)
			if b.SwapTiles {
				putInt(1)
			} else {
				putInt(0)
			}
			putInt(len(b.Path))
			for _, v := range b.Path {
				putInt(v)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func computeGolden(t testing.TB) *goldenFile {
	gf := &goldenFile{
		ScheduleHash:  map[string]string{},
		Presets:       map[string]string{},
		DefectHash:    map[string]string{},
		ParallelHash:  map[string]string{},
		CongestedHash: map[string]string{},
		RouteWork:     map[string]string{},
	}
	for _, name := range goldenBenchmarks {
		e, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown golden benchmark %s", name)
		}
		c := e.Build()
		g := grid.Rect(e.N)
		for _, finder := range goldenFinders() {
			sp := core.Spec{Placement: "hilight", Ordering: "proposed", Finder: finder}
			res, err := core.Run(c, g, sp, core.RunOptions{Rng: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, finder, err)
			}
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Fatalf("%s/%s: invalid schedule: %v", name, finder, err)
			}
			gf.ScheduleHash[name+"/"+finder] = hashSchedule(res.Schedule)
		}
		gf.ParallelHash[name] = parallelHash(t, name, c, g)
	}
	for _, name := range []string{"sqrt8_260", "QFT-16", "Ising-10"} {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		for _, method := range hilight.Methods() {
			res, err := hilight.Compile(c, g, hilight.WithMethod(method), hilight.WithSeed(1))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			gf.Presets[name+"/"+method] = fmt.Sprintf("%d/%.6f", res.Latency, res.ResUtil)
		}
	}
	// Defect fixtures: the same compile with a fixed 5%-rate defect map on
	// the next-larger grid must keep producing the identical schedule. The
	// seeds are chosen so each sampled map hits all three defect classes
	// (dead tile, dead vertex, broken channel).
	for _, fix := range []struct {
		name string
		w, h int
		seed int64
	}{
		{"QFT-16", 5, 4, 4},
		{"Ising-10", 4, 4, 7},
	} {
		c, ok := hilight.Benchmark(fix.name)
		if !ok {
			t.Fatalf("unknown benchmark %s", fix.name)
		}
		g := hilight.NewGrid(fix.w, fix.h)
		_, dm := hilight.InjectDefects(g, 0.05, fix.seed)
		res, err := hilight.Compile(c, g, hilight.WithSeed(1), hilight.WithDefects(dm))
		if err != nil {
			t.Fatalf("defect golden %s: %v", fix.name, err)
		}
		if err := res.Schedule.Validate(res.Circuit); err != nil {
			t.Fatalf("defect golden %s: invalid schedule: %v", fix.name, err)
		}
		if got := res.Schedule.Grid.Defects(); got.Empty() {
			t.Fatalf("defect golden %s: schedule grid lost its defects", fix.name)
		}
		gf.DefectHash[fix.name] = hashSchedule(res.Schedule)
		gf.ParallelHash["defect/"+fix.name] = parallelHash(t, fix.name, c, g, hilight.WithDefects(dm))
	}
	for _, name := range congestedBenchmarks {
		c, ok := hilight.Benchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		g := hilight.RectGrid(c.NumQubits)
		for _, method := range congestedMethods {
			res, err := hilight.Compile(c, g, hilight.WithMethod(method), hilight.WithSeed(1))
			if err != nil {
				t.Fatalf("congested golden %s/%s: %v", name, method, err)
			}
			if err := res.Schedule.Validate(res.Circuit); err != nil {
				t.Fatalf("congested golden %s/%s: invalid schedule: %v", name, method, err)
			}
			gf.CongestedHash[name+"/"+method] = hashSchedule(res.Schedule)
			gf.RouteWork[name+"/"+method] = routeWork(t, name+"/"+method, res)
		}
	}
	return gf
}

// routeWork reads the route stage's search counters off res.Trace as
// "<searches>/<pops>".
func routeWork(t testing.TB, key string, res *hilight.Result) string {
	t.Helper()
	for _, st := range res.Trace {
		if st.Stage != "route" {
			continue
		}
		searches, ok1 := st.Counter("searches")
		pops, ok2 := st.Counter("search-pops")
		if !ok1 || !ok2 {
			t.Fatalf("route work %s: route stage has no search counters", key)
		}
		return fmt.Sprintf("%d/%d", searches, pops)
	}
	t.Fatalf("route work %s: no route stage in the trace", key)
	return ""
}

// parallelHash compiles c with hilight-map-parallel at seed 1,
// validates the schedule and fingerprints it.
func parallelHash(t testing.TB, name string, c *hilight.Circuit, g *hilight.Grid, opts ...hilight.Option) string {
	t.Helper()
	opts = append([]hilight.Option{
		hilight.WithMethod("hilight-map-parallel"), hilight.WithSeed(1),
	}, opts...)
	res, err := hilight.Compile(c, g, opts...)
	if err != nil {
		t.Fatalf("parallel golden %s: %v", name, err)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("parallel golden %s: invalid schedule: %v", name, err)
	}
	return hashSchedule(res.Schedule)
}

// TestGoldenSchedules pins routing behavior: every path-finder must keep
// producing byte-identical schedules, and every method preset identical
// latency/ResUtil, at seed 1.
func TestGoldenSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration is slow")
	}
	got := computeGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d schedule hashes, %d preset rows",
			len(got.ScheduleHash), len(got.Presets))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	diffMaps(t, "schedule_hash", want.ScheduleHash, got.ScheduleHash)
	diffMaps(t, "presets", want.Presets, got.Presets)
	diffMaps(t, "defect_hash", want.DefectHash, got.DefectHash)
	diffMaps(t, "parallel_hash", want.ParallelHash, got.ParallelHash)
	diffMaps(t, "congested_hash", want.CongestedHash, got.CongestedHash)
	diffMaps(t, "route_work", want.RouteWork, got.RouteWork)
}

func diffMaps(t *testing.T, label string, want, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s[%s] = %s, want %s", label, k, got[k], want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s[%s] unexpected new entry", label, k)
		}
	}
}
