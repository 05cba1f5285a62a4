package main

import "math/rand"

// deck deals the indices 0..len(counts)-1, index i counts[i] times per
// pass, in an order reshuffled by rng for every pass. A run drawing from
// decks sees every choice in its fixed proportion (to within one pass)
// whatever the seed, so the seed moves the order and not the mix; that
// keeps runs of different seeds comparable.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, counts []int) *deck {
	d := &deck{rng: rng}
	for i, n := range counts {
		for j := 0; j < n; j++ {
			d.cards = append(d.cards, i)
		}
	}
	return d
}

// uniformDeck deals 0..n-1 once per pass.
func uniformDeck(rng *rand.Rand, n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(rng, counts)
}

func (d *deck) deal() int {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}
