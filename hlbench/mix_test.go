package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPlanMixSeeded(t *testing.T) {
	a, b := planMix(7, 10*time.Second), planMix(7, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	c := planMix(8, 10*time.Second)
	if reflect.DeepEqual(a.reads, c.reads) || reflect.DeepEqual(a.writes, c.writes) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	// The seed moves the order, not the mix: 10 s is a whole pass of both
	// lanes' class decks.
	count := func(ops []mixOp) map[string]int {
		n := map[string]int{}
		for _, op := range ops {
			n[op.class]++
		}
		return n
	}
	if !reflect.DeepEqual(count(a.reads), count(c.reads)) || !reflect.DeepEqual(count(a.writes), count(c.writes)) {
		t.Errorf("class counts differ between seeds: %v %v vs %v %v",
			count(a.reads), count(a.writes), count(c.reads), count(c.writes))
	}
}

func TestDeckDealsFixedProportions(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(1)), []int{3, 0, 1, 2})
	for pass := 0; pass < 4; pass++ {
		n := make([]int, 4)
		for i := 0; i < 6; i++ {
			n[d.deal()]++
		}
		if !reflect.DeepEqual(n, []int{3, 0, 1, 2}) {
			t.Fatalf("pass %d dealt %v, want [3 0 1 2]", pass, n)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json names the
// workloads and metrics the program reports, with the same units and
// directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	// service-mix stays out of BENCHMARK.json (README.md says why); the
	// others must be there.
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"table1-compile", "cluster-batch"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	for _, n := range names {
		if lookupWorkload(n) == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not have", n)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}
