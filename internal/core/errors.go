package core

import (
	"errors"
	"fmt"
)

// ErrCanceled is the sentinel wrapped into every cancellation failure:
// errors.Is(err, ErrCanceled) holds whether the context was canceled
// before Compile started or a deadline fired mid-routing.
var ErrCanceled = errors.New("compile canceled")

// ErrWarmStart is the sentinel wrapped into every warm-start failure:
// no layer of the previous schedule replays on the new circuit or grid
// (the first layer's gates diverged, a path crosses a new defect, the
// layout lost a tile), or a replayed braid no longer holds (its gate is
// not next on its operands, which moved). Callers detect it with
// errors.Is and fall back to a cold compile — a warm-start failure is
// never fatal.
var ErrWarmStart = errors.New("warm-start prefix replay failed")

// ErrUnroutable reports that the router proved a gate cannot be braided:
// a full sweep on an otherwise-empty lattice placed nothing, so waiting
// more cycles cannot help (defects, reserved regions, or a partitioned
// lattice separate the operand tiles). Gate is the circuit gate index, or
// -1 when no single gate could be blamed. Retrieve with errors.As.
type ErrUnroutable struct {
	Gate             int
	CtlTile, TgtTile int
	Reason           string
}

// Error implements error.
func (e *ErrUnroutable) Error() string {
	if e.Gate >= 0 {
		return fmt.Sprintf("core: gate %d (tiles %d-%d) unroutable: %s", e.Gate, e.CtlTile, e.TgtTile, e.Reason)
	}
	return "core: unroutable: " + e.Reason
}

// maxGridVertices is the most routing vertices a compile accepts in a
// grid: at 2^26, the router's per-vertex A* records alone take 1 GiB.
const maxGridVertices = 1 << 26

// ErrGridTooLarge reports that the grid has more routing vertices than
// a compile accepts (maxGridVertices), so no method routes on it: the
// validate pass refuses it before the router allocates for it. Retrieve
// with errors.As.
type ErrGridTooLarge struct {
	W, H     int // tiles per row and per column
	Vertices int // routing vertices, (W+1)(H+1)
	Limit    int // maxGridVertices
}

// Error implements error.
func (e *ErrGridTooLarge) Error() string {
	return fmt.Sprintf("core: %dx%d grid has %d routing vertices, more than the %d the router takes",
		e.W, e.H, e.Vertices, e.Limit)
}

// ErrInsufficientCapacity reports that the grid has fewer usable tiles
// than the circuit has program qubits, so no placement exists. Retrieve
// with errors.As.
type ErrInsufficientCapacity struct {
	Need int // program qubits
	Have int // usable tiles
	Grid string
}

// Error implements error.
func (e *ErrInsufficientCapacity) Error() string {
	return fmt.Sprintf("core: %s has %d usable tiles for %d program qubits", e.Grid, e.Have, e.Need)
}
