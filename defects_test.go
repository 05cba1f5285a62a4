package hilight_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hilight"
	"hilight/internal/exp"
)

// partitionCut disables the full vertex column at x=2 of a 4×1 grid
// (vertex lattice 5×2), cutting every braiding path between the left and
// right halves while both halves stay usable.
func partitionCut() (*hilight.Grid, *hilight.DefectMap) {
	return hilight.NewGrid(4, 1), &hilight.DefectMap{Vertices: []int{2, 7}}
}

func TestUnroutablePartitionedGrid(t *testing.T) {
	g, cut := partitionCut()
	c := hilight.NewCircuit("cross-cut", 4)
	c.Add2(hilight.CX, 0, 3)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = hilight.Compile(c, g, hilight.WithMethod("identity"), hilight.WithDefects(cut))
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Compile hung on a partitioned grid instead of returning ErrUnroutable")
	}
	var unroutable *hilight.ErrUnroutable
	if !errors.As(err, &unroutable) {
		t.Fatalf("got %v, want ErrUnroutable", err)
	}
	if unroutable.Gate != 0 {
		t.Fatalf("blamed gate %d, want 0", unroutable.Gate)
	}
	if unroutable.Reason == "" {
		t.Fatal("ErrUnroutable carries no reason")
	}
}

func TestWithFallback(t *testing.T) {
	g, cut := partitionCut()
	// Both gates stay within one half, so a layout that keeps the pairs
	// on their own sides routes fine. The hilight placement clusters all
	// four qubits around the center and straddles the cut; identity keeps
	// q0,q1 left and q2,q3 right.
	c := hilight.NewCircuit("pairs", 4)
	c.Add2(hilight.CX, 0, 1)
	c.Add2(hilight.CX, 2, 3)

	if _, err := hilight.Compile(c, g, hilight.WithDefects(cut)); err == nil {
		t.Fatal("hilight placement should fail on the partitioned strip (test premise)")
	}
	res, err := hilight.Compile(c, g, hilight.WithDefects(cut), hilight.WithFallback("identity"))
	if err != nil {
		t.Fatalf("fallback chain failed: %v", err)
	}
	if !res.Degraded || res.FallbackMethod != "identity" {
		t.Fatalf("Degraded=%v FallbackMethod=%q, want true/identity", res.Degraded, res.FallbackMethod)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}

	// A primary success must not be marked degraded.
	res, err = hilight.Compile(c, hilight.NewGrid(4, 1), hilight.WithFallback("identity"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.FallbackMethod != "" {
		t.Fatalf("pristine compile marked degraded: %+v", res)
	}

	// Unknown fallback methods fail fast, before any compile work.
	if _, err := hilight.Compile(c, g, hilight.WithFallback("nope")); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("got %v, want unknown-method error", err)
	}

	// When every chain entry fails, the primary's error is reported. The
	// gate set q0-q1, q2-q3, q0-q3 would need all four qubits on one
	// two-tile side of the cut, so NO placement can route it.
	wide := hilight.NewCircuit("wide", 4)
	wide.Add2(hilight.CX, 0, 1)
	wide.Add2(hilight.CX, 2, 3)
	wide.Add2(hilight.CX, 0, 3)
	var unroutable *hilight.ErrUnroutable
	if _, err := hilight.Compile(wide, g, hilight.WithDefects(cut), hilight.WithFallback("identity", "random")); !errors.As(err, &unroutable) {
		t.Fatalf("got %v, want primary ErrUnroutable", err)
	}
}

func TestCompileCanceled(t *testing.T) {
	c, ok := hilight.Benchmark("QFT-16")
	if !ok {
		t.Fatal("missing benchmark")
	}
	g := hilight.RectGrid(c.NumQubits)

	// Already-canceled context: no routing work may happen.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	observed := 0
	_, err := hilight.Compile(c, g,
		hilight.WithContext(ctx),
		hilight.WithObserver(func(hilight.CycleStats) { observed++ }))
	if !errors.Is(err, hilight.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if observed != 0 {
		t.Fatalf("router ran %d cycles under a dead context", observed)
	}

	// Mid-run cancellation: cancel from inside the per-cycle observer, so
	// the test is deterministic without timing games. The router must stop
	// at the next cycle boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cycles := 0
	_, err = hilight.Compile(c, g,
		hilight.WithContext(ctx2),
		hilight.WithObserver(func(hilight.CycleStats) {
			cycles++
			if cycles == 2 {
				cancel2()
			}
		}))
	if !errors.Is(err, hilight.ErrCanceled) {
		t.Fatalf("mid-run cancel: got %v, want ErrCanceled", err)
	}
	if cycles > 3 {
		t.Fatalf("router ran %d cycles after cancellation", cycles)
	}

	// WithTimeout: an expired deadline surfaces as ErrCanceled too.
	if _, err := hilight.Compile(c, g, hilight.WithTimeout(time.Nanosecond)); !errors.Is(err, hilight.ErrCanceled) {
		t.Fatalf("timeout: got %v, want ErrCanceled", err)
	}

	// A generous timeout must not interfere.
	if _, err := hilight.Compile(c, g, hilight.WithTimeout(time.Minute)); err != nil {
		t.Fatalf("generous timeout failed compile: %v", err)
	}
}

func TestCompileGuards(t *testing.T) {
	small := hilight.NewCircuit("small", 2)
	small.Add2(hilight.CX, 0, 1)
	wide := hilight.NewCircuit("wide", 10)
	wide.Add2(hilight.CX, 0, 9)
	for _, method := range hilight.Methods() {
		t.Run(method, func(t *testing.T) {
			if _, err := hilight.Compile(nil, hilight.NewGrid(2, 2), hilight.WithMethod(method)); !errors.Is(err, hilight.ErrNilCircuit) {
				t.Fatalf("nil circuit: got %v, want ErrNilCircuit", err)
			}
			if _, err := hilight.Compile(small, nil, hilight.WithMethod(method)); !errors.Is(err, hilight.ErrNilGrid) {
				t.Fatalf("nil grid: got %v, want ErrNilGrid", err)
			}
			var capErr *hilight.ErrInsufficientCapacity
			_, err := hilight.Compile(wide, hilight.NewGrid(2, 2), hilight.WithMethod(method))
			if !errors.As(err, &capErr) {
				t.Fatalf("too-wide circuit: got %v, want ErrInsufficientCapacity", err)
			}
			if capErr.Need != 10 || capErr.Have != 4 {
				t.Fatalf("capacity error = %+v, want Need=10 Have=4", capErr)
			}
		})
	}

	// An invalid defect map fails cleanly and leaves the caller's grid alone.
	g := hilight.NewGrid(3, 3)
	if _, err := hilight.Compile(small, g, hilight.WithDefects(&hilight.DefectMap{Tiles: []int{99}})); err == nil {
		t.Fatal("out-of-range defect map accepted")
	}
	if g.HasDefects() {
		t.Fatal("failed WithDefects mutated the caller's grid")
	}
	res, err := hilight.Compile(small, g, hilight.WithDefects(&hilight.DefectMap{Tiles: []int{8}}))
	if err != nil {
		t.Fatal(err)
	}
	if g.HasDefects() {
		t.Fatal("WithDefects mutated the caller's grid")
	}
	if !res.Schedule.Grid.TileDefective(8) {
		t.Fatal("result grid is not the degraded clone")
	}
}

// TestCompileRefusesGridPastHeapBound holds compile entry to the
// router's vertex bound: a grid with more routing vertices than 2^26,
// where the router's per-vertex A* records alone would take 1 GiB, fails
// with ErrGridTooLarge under every method and fallback chain, before
// anything allocates for it. The grids carry only their dimensions,
// since a real 8,192×8,192 grid holds some 335 MB of per-tile and
// per-vertex tables and the check reads none of them; the one at the
// bound gets past it and stops at the capacity check, as its tables are
// empty.
func TestCompileRefusesGridPastHeapBound(t *testing.T) {
	c := hilight.NewCircuit("pair", 2)
	c.Add2(hilight.CX, 0, 1)
	past := &hilight.Grid{W: 8192, H: 8192} // 8,193² routing vertices
	at := &hilight.Grid{W: 8191, H: 8191}   // 8,192² = 2^26
	for _, method := range hilight.Methods() {
		t.Run(method, func(t *testing.T) {
			_, err := hilight.Compile(c, past, hilight.WithMethod(method), hilight.WithFallback("identity", "random"))
			var sizeErr *hilight.ErrGridTooLarge
			if !errors.As(err, &sizeErr) {
				t.Fatalf("8192x8192 grid: got %v, want ErrGridTooLarge", err)
			}
			if sizeErr.Vertices != 8193*8193 || sizeErr.Limit != 1<<26 {
				t.Fatalf("size error = %+v, want %d vertices past a limit of %d", sizeErr, 8193*8193, 1<<26)
			}
			if want := "8192x8192 grid has 67125249 routing vertices, more than the 67108864"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
			_, err = hilight.Compile(c, at, hilight.WithMethod(method))
			var capErr *hilight.ErrInsufficientCapacity
			if !errors.As(err, &capErr) {
				t.Fatalf("8191x8191 grid: got %v, want it past the size check and refused for capacity", err)
			}
		})
	}
}

// TestDefectYieldAcceptance is the ISSUE's headline robustness bar: with
// 5% random defects at seed 1, the hilight method (with identity
// fallback) must compile at least 90% of the small Table 1 benchmarks on
// the next-larger grid, and every produced schedule must pass the
// defect-aware validator (RunDefectYield validates internally and errors
// out otherwise).
func TestDefectYieldAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("yield study is slow")
	}
	rep, err := exp.RunDefectYield(exp.Options{Scale: exp.ScaleSmall, Seed: 1, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Points {
		if p.Rate != 0.05 {
			continue
		}
		found = true
		if p.Attempts == 0 {
			t.Fatal("no attempts at the 5% point")
		}
		if sr := p.SuccessRate(); sr < 0.9 {
			t.Fatalf("5%% defect yield %.1f%% < 90%%", 100*sr)
		}
	}
	if !found {
		t.Fatal("yield study has no 5% point")
	}
}

// The three options interact: WithDefects degrades the grid, WithFallback
// swaps in a method the primary couldn't match, and WithCompaction runs
// its pipeline pass on whatever schedule the winning attempt produced.
// The compacted fallback schedule must still pass the defect-aware
// validator and must never be slower than the uncompacted one.
func TestCompactionOnFallbackDefectiveGrid(t *testing.T) {
	g, cut := partitionCut()
	c := hilight.NewCircuit("pairs", 4)
	c.Add2(hilight.CX, 0, 1)
	c.Add2(hilight.CX, 2, 3)

	plain, err := hilight.Compile(c, g,
		hilight.WithDefects(cut), hilight.WithFallback("identity"))
	if err != nil {
		t.Fatalf("fallback compile failed: %v", err)
	}
	res, err := hilight.Compile(c, g,
		hilight.WithDefects(cut), hilight.WithFallback("identity"), hilight.WithCompaction())
	if err != nil {
		t.Fatalf("fallback+compaction compile failed: %v", err)
	}
	if !res.Degraded || res.FallbackMethod != "identity" {
		t.Fatalf("Degraded=%v FallbackMethod=%q, want true/identity", res.Degraded, res.FallbackMethod)
	}
	if err := res.Schedule.Validate(res.Circuit); err != nil {
		t.Fatalf("compacted fallback schedule invalid: %v", err)
	}
	if res.Schedule.Grid.Defects().Empty() {
		t.Fatal("compacted schedule lost the grid's defect map")
	}
	if res.Latency > plain.Latency {
		t.Errorf("compaction raised latency on defective grid: %d -> %d",
			plain.Latency, res.Latency)
	}
	if res.Latency != res.Schedule.Latency() {
		t.Errorf("Result.Latency %d describes a different schedule (latency %d)",
			res.Latency, res.Schedule.Latency())
	}
	found := false
	for _, st := range res.Trace {
		if st.Stage == "compact" {
			found = true
		}
	}
	if !found {
		t.Errorf("compact stage missing from trace of a WithCompaction compile")
	}
}
