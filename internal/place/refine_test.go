package place

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hilight/internal/circuit"
	"hilight/internal/grid"
)

func TestRefineImprovesRandomLayout(t *testing.T) {
	// Heavy disjoint pairs: random layouts scatter them, refinement must
	// pull partners together. (A uniform complete graph like QFT on a
	// full grid is permutation-invariant — nothing to improve there.)
	c := circuit.New("cluster", 12)
	for i := 0; i < 12; i += 2 {
		for k := 0; k < 5; k++ {
			c.Add2(circuit.CX, i, i+1)
		}
		if i >= 2 {
			c.Add2(circuit.CX, i-1, i)
		}
	}
	g := grid.Rect(12)
	bad := Random{Rng: rand.New(rand.NewSource(5))}.Place(c, g)
	before := Score(bad, circuit.InteractionGraph(c), g)
	refined := Refine(bad, c, g, 0)
	after := Score(refined, circuit.InteractionGraph(c), g)
	if after > before {
		t.Fatalf("refinement worsened score: %d -> %d", before, after)
	}
	if after == before {
		t.Errorf("refinement found nothing to improve on a random layout (score %d)", before)
	}
	if err := refined.Validate(g); err != nil {
		t.Fatal(err)
	}
	// The input layout must be untouched.
	if Score(bad, circuit.InteractionGraph(c), g) != before {
		t.Error("Refine mutated its input")
	}
}

func TestRefineLeavesOptimumAlone(t *testing.T) {
	// Chain circuit on a snake layout is already optimal (score = bonds).
	c := chainCircuit(9)
	g := grid.Square(9)
	snake, ok := Pattern{}.Match(c, g)
	if !ok {
		t.Fatal("pattern should match")
	}
	before := Score(snake, circuit.InteractionGraph(c), g)
	refined := Refine(snake, c, g, 0)
	if got := Score(refined, circuit.InteractionGraph(c), g); got != before {
		t.Errorf("optimal layout changed: %d -> %d", before, got)
	}
}

func TestRefineRespectsReservedTiles(t *testing.T) {
	c := qftLike(6)
	g := grid.New(3, 3)
	g.ReserveTile(g.TileAt(1, 1))
	l := Random{Rng: rand.New(rand.NewSource(2))}.Place(c, g)
	refined := Refine(l, c, g, 0)
	if err := refined.Validate(g); err != nil {
		t.Fatal(err)
	}
	if refined.TileQubit[g.TileAt(1, 1)] != -1 {
		t.Error("refinement moved a qubit onto a reserved tile")
	}
}

func TestRefineHandlesNoInteractions(t *testing.T) {
	c := circuit.New("silent", 4)
	g := grid.Square(4)
	l := Identity{}.Place(c, g)
	refined := Refine(l, c, g, 0)
	if err := refined.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRefinedMethodComposes(t *testing.T) {
	c := qftLike(9)
	g := grid.Square(9)
	r := Refined{Base: Random{Rng: rand.New(rand.NewSource(8))}}
	if r.Name() != "random+refine" {
		t.Errorf("name = %q", r.Name())
	}
	l := r.Place(c, g)
	if err := l.Validate(g); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(l.QubitTile, -1) {
		t.Fatal("incomplete")
	}
	// Default base is Proximity.
	d := Refined{}
	if d.Name() != "proximity+refine" {
		t.Errorf("default name = %q", d.Name())
	}
	if err := d.Place(c, g).Validate(g); err != nil {
		t.Fatal(err)
	}
}

// Property: refinement never raises the score and always yields a valid
// complete layout.
func TestRefineMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		c := circuit.New("rand", n)
		for i := 0; i < n*3; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				c.Add2(circuit.CX, a, b)
			}
		}
		g := grid.Rect(n)
		l := Random{Rng: rng}.Place(c, g)
		before := Score(l, circuit.InteractionGraph(c), g)
		refined := Refine(l, c, g, 1+rng.Intn(20))
		if refined.Validate(g) != nil || slices.Contains(refined.QubitTile, -1) {
			return false
		}
		return Score(refined, circuit.InteractionGraph(c), g) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
