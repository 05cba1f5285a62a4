package hilight_test

// Determinism suite for the speculative route step: across GOMAXPROCS
// settings and CompileAll worker counts, the *-parallel methods must
// emit byte-identical encoded schedules on the Table-1 circuit set. The
// suite runs under `go test -race`, so it also proves that concurrent
// compiles of the step share no mutable state.

import (
	"bytes"
	"runtime"
	"testing"

	"hilight"
)

// determinismBenchmarks is the Table-1 subset the suite compiles: small
// enough to sweep 3 GOMAXPROCS settings × 2 batch worker counts per
// circuit, varied enough to cover chain-, block-, and all-to-all-shaped
// DAGs.
var determinismBenchmarks = []string{"QFT-16", "Ising-10", "sqrt8_260"}

// compileParallel compiles a batch of copies of the named benchmark with
// hilight-parallel on a CompileAll pool of the given size and returns
// each job's encoded schedule.
func compileParallel(t *testing.T, name string, workers int) [][]byte {
	t.Helper()
	c, ok := hilight.Benchmark(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	g := hilight.RectGrid(c.NumQubits)
	jobs := make([]hilight.BatchJob, 4)
	for i := range jobs {
		jobs[i] = hilight.BatchJob{Circuit: c, Grid: g}
	}
	var encs [][]byte
	for i, br := range hilight.CompileAll(jobs, workers, hilight.WithMethod("hilight-parallel")) {
		if br.Err != nil {
			t.Fatalf("%s workers=%d job %d: %v", name, workers, i, br.Err)
		}
		if err := br.Result.Schedule.Validate(br.Result.Circuit); err != nil {
			t.Fatalf("%s workers=%d job %d: invalid schedule: %v", name, workers, i, err)
		}
		enc, err := hilight.EncodeScheduleJSON(br.Result.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	return encs
}

func TestParallelDeterminismAcrossWorkersAndGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range determinismBenchmarks {
		t.Run(name, func(t *testing.T) {
			var want []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 4} {
					for i, enc := range compileParallel(t, name, workers) {
						if want == nil {
							want = enc
							continue
						}
						if !bytes.Equal(want, enc) {
							t.Fatalf("schedule differs at GOMAXPROCS=%d workers=%d job %d", procs, workers, i)
						}
					}
				}
			}
		})
	}
}
