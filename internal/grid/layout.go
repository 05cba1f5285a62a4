package grid

import "fmt"

// Layout is a (partial) assignment of program qubits to grid tiles — the
// π of Alg. 1. Unassigned entries are -1 on both sides. A Layout is valid
// for a specific Grid; reserved tiles never appear in it.
type Layout struct {
	QubitTile []int // program qubit -> tile, -1 if unmapped
	TileQubit []int // tile -> program qubit, -1 if empty
}

// NewLayout returns an empty layout for n program qubits on g. It panics
// if the grid cannot hold n qubits; sizing the grid is the caller's job
// and a too-small grid is a configuration bug.
func NewLayout(n int, g *Grid) *Layout {
	if g.Capacity() < n {
		panic(fmt.Sprintf("grid: %s cannot hold %d program qubits", g, n))
	}
	l := &Layout{
		QubitTile: make([]int, n),
		TileQubit: make([]int, g.Tiles()),
	}
	for i := range l.QubitTile {
		l.QubitTile[i] = -1
	}
	for i := range l.TileQubit {
		l.TileQubit[i] = -1
	}
	return l
}

// Assign maps qubit q to tile t. It panics on double-assignment or on a
// reserved or defective tile; placements construct layouts and must not
// collide.
func (l *Layout) Assign(q, t int, g *Grid) {
	if !g.Usable(t) {
		panic(fmt.Sprintf("grid: assign q%d to unusable (reserved/defective) tile %d", q, t))
	}
	if l.QubitTile[q] != -1 {
		panic(fmt.Sprintf("grid: qubit %d already mapped to tile %d", q, l.QubitTile[q]))
	}
	if l.TileQubit[t] != -1 {
		panic(fmt.Sprintf("grid: tile %d already holds qubit %d", t, l.TileQubit[t]))
	}
	l.QubitTile[q] = t
	l.TileQubit[t] = q
}

// Swap exchanges the contents of tiles t1 and t2 (either may be empty).
// This is the layout effect of a SWAP gate in the AutoBraid baseline.
func (l *Layout) Swap(t1, t2 int) {
	q1, q2 := l.TileQubit[t1], l.TileQubit[t2]
	l.TileQubit[t1], l.TileQubit[t2] = q2, q1
	if q1 != -1 {
		l.QubitTile[q1] = t2
	}
	if q2 != -1 {
		l.QubitTile[q2] = t1
	}
}

// Clone returns a deep copy.
func (l *Layout) Clone() *Layout {
	return &Layout{
		QubitTile: append([]int(nil), l.QubitTile...),
		TileQubit: append([]int(nil), l.TileQubit...),
	}
}

// CopyFrom overwrites l with src's assignment without allocating. The
// two layouts must have the same qubit and tile counts; reusing a layout
// across differently-sized grids is a caller bug and panics.
func (l *Layout) CopyFrom(src *Layout) {
	if len(l.QubitTile) != len(src.QubitTile) || len(l.TileQubit) != len(src.TileQubit) {
		panic(fmt.Sprintf("grid: CopyFrom size mismatch (%d/%d qubits, %d/%d tiles)",
			len(l.QubitTile), len(src.QubitTile), len(l.TileQubit), len(src.TileQubit)))
	}
	copy(l.QubitTile, src.QubitTile)
	copy(l.TileQubit, src.TileQubit)
}

// Validate checks internal consistency against g: bijectivity between the
// two directions, bounds, and reservation. Returns the first problem or
// nil.
func (l *Layout) Validate(g *Grid) error {
	if len(l.TileQubit) != g.Tiles() {
		return fmt.Errorf("layout tile table size %d != grid tiles %d", len(l.TileQubit), g.Tiles())
	}
	for q, t := range l.QubitTile {
		if t == -1 {
			continue
		}
		if t < 0 || t >= g.Tiles() {
			return fmt.Errorf("qubit %d mapped to out-of-range tile %d", q, t)
		}
		if !g.Usable(t) {
			return fmt.Errorf("qubit %d mapped to unusable (reserved/defective) tile %d", q, t)
		}
		if l.TileQubit[t] != q {
			return fmt.Errorf("qubit %d -> tile %d but tile holds %d", q, t, l.TileQubit[t])
		}
	}
	for t, q := range l.TileQubit {
		if q == -1 {
			continue
		}
		if q < 0 || q >= len(l.QubitTile) {
			return fmt.Errorf("tile %d holds out-of-range qubit %d", t, q)
		}
		if l.QubitTile[q] != t {
			return fmt.Errorf("tile %d -> qubit %d but qubit maps to %d", t, q, l.QubitTile[q])
		}
	}
	return nil
}
