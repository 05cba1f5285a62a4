package core

import "math/rand"

// NewRand returns a *rand.Rand whose every method returns what
// rand.New(rand.NewSource(seed)) returns, but which seeds that source
// on its first draw. Seeding fills a 607-word state, which costs more
// than many compiles' placement, and most methods never draw: of the
// three benchmarked HiLight methods only Pattern's random layout does.
func NewRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// lazySource is a rand.Source64 that builds rand.NewSource(seed) on its
// first Int63 or Uint64. Because it implements Source64, rand.Rand draws
// Uint64 through it exactly as through the source it wraps, so every
// method of the Rand yields the wrapped source's stream.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.source().Int63() }
func (s *lazySource) Uint64() uint64  { return s.source().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }
