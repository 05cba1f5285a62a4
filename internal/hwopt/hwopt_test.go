package hwopt

import (
	"math/rand"
	"testing"

	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/grid"
)

func TestGridWithFactory(t *testing.T) {
	g, err := GridWithFactory(12, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Capacity() < 12 {
		t.Errorf("capacity %d < 12", g.Capacity())
	}
	if !g.Reserved(g.TileAt(g.W-1, g.H-1)) {
		t.Error("factory corner not reserved")
	}
	if _, err := GridWithFactory(4, 0, 1, false); err == nil {
		t.Error("invalid factory size accepted")
	}
	// Bigger factory block.
	g2, err := GridWithFactory(9, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Capacity() < 9 {
		t.Errorf("capacity %d < 9", g2.Capacity())
	}
	reserved := g2.Tiles() - g2.Capacity()
	if reserved != 4 {
		t.Errorf("reserved = %d, want 4", reserved)
	}
}

// growFactoryGrid is GridWithFactory's former growth loop: it tries
// grid.Rect(n+fw·fh+extra) (grid.Square without hwOpt) for extra = 0, 1,
// 2, …, building a grid per step, until one fits the factory. It is the
// reference factoryDims must reproduce, and only usable on small inputs.
func growFactoryGrid(n, fw, fh int, hwOpt bool) *grid.Grid {
	for extra := 0; ; extra++ {
		g := grid.Square(n + fw*fh + extra)
		if hwOpt {
			g = grid.Rect(n + fw*fh + extra)
		}
		if g.W < fw || g.H < fh {
			continue
		}
		if err := g.Reserve(g.W-fw, g.H-fh, g.W-1, g.H-1); err != nil {
			panic(err)
		}
		if g.Capacity() >= n {
			return g
		}
	}
}

// TestGridWithFactoryDims pins the factory grid shapes the growth loop
// produced: a table of (n, fw, fh, rect) cases, some far too large for
// the loop, and a sweep of small ones checked against it tile by tile.
func TestGridWithFactoryDims(t *testing.T) {
	for _, tc := range []struct {
		n, fw, fh      int
		rect           bool
		w, h, reserved int
	}{
		{16, 200, 1, true, 200, 199, 200},
		{16, 1, 200, false, 200, 200, 200},
		{471, 3, 2, true, 22, 22, 6},
		{100, 10, 10, false, 15, 15, 100},
		{10, 3, 2, true, 4, 4, 6},
		{9, 2, 2, true, 4, 4, 4},
		{0, 1, 1, true, 1, 1, 1},
		{50, 1, 30, true, 30, 30, 30},
		{50, 30, 1, false, 30, 30, 30},
		{4096, 64, 64, true, 91, 91, 4096},
		{12, 1, 1, false, 4, 4, 1},
		{1, 40, 39, true, 40, 40, 1560},
	} {
		g, err := GridWithFactory(tc.n, tc.fw, tc.fh, tc.rect)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if reserved := g.Tiles() - g.Capacity(); g.W != tc.w || g.H != tc.h || reserved != tc.reserved {
			t.Errorf("GridWithFactory(%d, %d, %d, %v) = %dx%d with %d reserved, want %dx%d with %d",
				tc.n, tc.fw, tc.fh, tc.rect, g.W, g.H, reserved, tc.w, tc.h, tc.reserved)
		}
	}
	for n := 0; n <= 40; n++ {
		for fw := 1; fw <= 9; fw++ {
			for fh := 1; fh <= 9; fh++ {
				for _, rect := range []bool{false, true} {
					want := growFactoryGrid(n, fw, fh, rect)
					got, err := GridWithFactory(n, fw, fh, rect)
					if err != nil {
						t.Fatalf("(%d, %d, %d, %v): %v", n, fw, fh, rect, err)
					}
					if got.W != want.W || got.H != want.H {
						t.Fatalf("(%d, %d, %d, %v): %dx%d, want %dx%d", n, fw, fh, rect, got.W, got.H, want.W, want.H)
					}
					for tile := 0; tile < want.Tiles(); tile++ {
						if got.Reserved(tile) != want.Reserved(tile) {
							t.Fatalf("(%d, %d, %d, %v): tile %d reserved %v, want %v", n, fw, fh, rect, tile, got.Reserved(tile), want.Reserved(tile))
						}
					}
				}
			}
		}
	}
}

func TestRectRaisesUtilization(t *testing.T) {
	// Same circuit on the smaller rectangle should use the hardware more
	// intensively (ResUtil up) without catastrophic latency loss — the
	// §4.6 effect. QFT pattern matching randomizes the layout, so average
	// over seeds.
	c := circuit.New("qft", 12)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			c.Add2(circuit.CX, j, i)
		}
	}
	var sqU, rcU float64
	var sqL, rcL int
	const trials = 25
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sq, err := core.Run(c, grid.Square(12), core.MustMethod("hilight-map"), core.RunOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		rng = rand.New(rand.NewSource(seed))
		rc, err := core.Run(c, grid.Rect(12), core.MustMethod("hilight-map"), core.RunOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		sqU += sq.ResUtil
		rcU += rc.ResUtil
		sqL += sq.Latency
		rcL += rc.Latency
	}
	// The rectangle drops a full row of hardware; utilization must hold
	// (within 10% of the square's) and latency must stay close (the paper
	// reports +0.5%; allow 20% for the small instance).
	if rcU < 0.9*sqU {
		t.Errorf("rect mean ResUtil %.3f collapsed vs square %.3f", rcU/trials, sqU/trials)
	}
	if float64(rcL) > 1.2*float64(sqL) {
		t.Errorf("rect latency %d blew up vs square %d", rcL, sqL)
	}
	if grid.Rect(12).Tiles() >= grid.Square(12).Tiles() {
		t.Error("rectangle did not shrink hardware")
	}
}
