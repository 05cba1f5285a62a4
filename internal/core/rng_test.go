package core

import (
	"math/rand"
	"slices"
	"testing"

	"hilight/internal/bench"
	"hilight/internal/grid"
)

// TestNewRandMatchesSeededSource holds the lazily seeded rng to
// rand.New(rand.NewSource(seed)): the same Int63, Uint64, Intn, Float64,
// Perm and Shuffle values, in an interleaved sequence, for seeds 0, 1,
// -1 and 2^40, and again after a reseed.
func TestNewRandMatchesSeededSource(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		var out []int64
		for i := 0; i < 50; i++ {
			out = append(out, r.Int63(), int64(r.Uint64()), int64(r.Intn(1000+i)), int64(r.Float64()*(1<<53)))
			for _, v := range r.Perm(i % 9) {
				out = append(out, int64(v))
			}
			s := []int64{1, 2, 3, 4, 5, 6}
			r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
			out = append(out, s...)
		}
		return out
	}
	for _, seed := range []int64{0, 1, -1, 1 << 40} {
		lazy, eager := NewRand(seed), rand.New(rand.NewSource(seed))
		if got, want := draws(lazy), draws(eager); !slices.Equal(got, want) {
			t.Errorf("seed %d: lazy stream differs from the seeded source's", seed)
		}
		lazy.Seed(seed + 7)
		eager.Seed(seed + 7)
		if got, want := draws(lazy), draws(eager); !slices.Equal(got, want) {
			t.Errorf("seed %d, reseeded: lazy stream differs from the seeded source's", seed)
		}
	}
}

// TestCompileSeedsOnlyOnDraw runs hilight-map pipelines on a lazily
// seeded rng: a compile whose passes never draw (a chain or a star,
// which get the linear and the proximity layout) leaves the source
// unseeded, and one whose random layout draws (QFT-16) seeds it.
func TestCompileSeedsOnlyOnDraw(t *testing.T) {
	for _, tc := range []struct {
		name  string
		draws bool
	}{{"Ising-10", false}, {"BV-10", false}, {"QFT-16", true}} {
		e, ok := bench.ByName(tc.name)
		if !ok {
			t.Fatalf("no benchmark %s", tc.name)
		}
		src := &lazySource{seed: 1}
		if _, err := Run(e.Build(), grid.Rect(e.N), MustMethod("hilight-map"), RunOptions{Rng: rand.New(src)}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if seeded := src.src != nil; seeded != tc.draws {
			t.Errorf("%s: source seeded = %v, want %v", tc.name, seeded, tc.draws)
		}
	}
}
