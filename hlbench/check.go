package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"hilight"
	"hilight/internal/circuit"
	"hilight/internal/core"
	"hilight/internal/session"
)

// workingCircuit rebuilds the circuit a method schedules: the input after
// SWAP decomposition and, when the method enables it, the program-level
// rewrite. Schedules validate against this circuit, not the input.
func workingCircuit(c *hilight.Circuit, method string) (*hilight.Circuit, error) {
	sp, ok := core.LookupMethod(method)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", method)
	}
	return session.WorkingCircuit(c, sp.QCO), nil
}

// depthBound is the two-qubit dependency depth of the SWAP-decomposed
// circuit: no schedule can take fewer cycles.
func depthBound(c *hilight.Circuit) int {
	_, d := circuit.Layers(c.DecomposeSWAPs())
	return d
}

// expect is what a received schedule must match: the circuit it claims
// to implement and the device it was compiled for.
type expect struct {
	working *hilight.Circuit
	w, h    int
	defects *hilight.DefectMap
}

// checkSchedule validates s by replay against the working circuit and
// checks that it was compiled for the expected grid and defect map.
func checkSchedule(s *hilight.Schedule, e expect) error {
	if s == nil || s.Grid == nil {
		return fmt.Errorf("schedule has no grid")
	}
	if s.Grid.W != e.w || s.Grid.H != e.h {
		return fmt.Errorf("schedule grid %dx%d, want %dx%d", s.Grid.W, s.Grid.H, e.w, e.h)
	}
	if !sameDefects(s.Grid.Defects(), e.defects) {
		return fmt.Errorf("schedule grid defects differ from the requested map")
	}
	if err := s.Validate(e.working); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	return nil
}

// sameDefects compares two defect maps as sets.
func sameDefects(a, b *hilight.DefectMap) bool {
	if a.Empty() || b.Empty() {
		return a.Empty() && b.Empty()
	}
	norm := func(d *hilight.DefectMap) ([]int, []int, [][2]int) {
		t := slices.Clone(d.Tiles)
		v := slices.Clone(d.Vertices)
		c := make([][2]int, len(d.Channels))
		for i, ch := range d.Channels {
			if ch[0] > ch[1] {
				ch[0], ch[1] = ch[1], ch[0]
			}
			c[i] = ch
		}
		sort.Ints(t)
		sort.Ints(v)
		sort.Slice(c, func(i, j int) bool {
			return c[i][0] < c[j][0] || (c[i][0] == c[j][0] && c[i][1] < c[j][1])
		})
		return t, v, c
	}
	at, av, ac := norm(a)
	bt, bv, bc := norm(b)
	return slices.Equal(at, bt) && slices.Equal(av, bv) && slices.Equal(ac, bc)
}

// sameSchedule reports whether two schedules are byte-identical in the
// binary wire encoding.
func sameSchedule(a, b *hilight.Schedule) (bool, error) {
	ab, err := hilight.EncodeScheduleBinary(a)
	if err != nil {
		return false, err
	}
	bb, err := hilight.EncodeScheduleBinary(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ab, bb), nil
}
