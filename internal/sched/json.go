package sched

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hilight/internal/grid"
	"hilight/internal/route"
)

// jsonSchedule is the stable on-disk form of a Schedule: enough to
// reconstruct the grid (dimensions plus reserved tiles), the initial
// layout, and every braid. The format is versioned so later extensions
// stay decodable. DecodeJSON reads it; AppendJSON writes the same form
// without it.
type jsonSchedule struct {
	Version  int             `json:"version"`
	GridW    int             `json:"grid_w"`
	GridH    int             `json:"grid_h"`
	Reserved []int           `json:"reserved,omitempty"`
	Defects  *grid.DefectMap `json:"defects,omitempty"`
	Qubits   int             `json:"qubits"`
	Initial  []int           `json:"initial"` // qubit -> tile
	Layers   [][]jsonBraid   `json:"layers"`
}

type jsonBraid struct {
	Gate      int   `json:"gate"`
	CtlTile   int   `json:"ctl"`
	TgtTile   int   `json:"tgt"`
	Path      []int `json:"path"`
	SwapTiles bool  `json:"swap,omitempty"`
}

const jsonVersion = 1

// EncodeJSON serializes the schedule.
func EncodeJSON(s *Schedule) ([]byte, error) { return AppendJSON(nil, s, "") }

// AppendJSON appends the schedule's JSON form to dst: byte for byte what
// json.MarshalIndent(form, prefix, "  ") writes for the jsonSchedule
// form, written in one pass into a buffer sized once. A response nests
// the form in its own indented body through prefix, the indentation of
// the line its member starts on. On error dst is returned unchanged.
//
// The form's empty cases follow encoding/json: no qubits writes
// "initial": null, no layers "layers": null, an empty layer [], an
// empty path "path": null, and no reserved tiles or defects omits the
// member.
func AppendJSON(dst []byte, s *Schedule, prefix string) ([]byte, error) {
	if s.Grid == nil || s.Initial == nil {
		return dst, fmt.Errorf("sched: schedule missing grid or initial layout")
	}
	g := s.Grid
	var defects []byte
	if d := g.Defects(); !d.Empty() {
		var err error
		if defects, err = json.MarshalIndent(d, prefix+"  ", "  "); err != nil {
			return dst, fmt.Errorf("sched: %w", err)
		}
	}
	// nl[d] starts a line d indents deep: the form's members sit at
	// depth 1, layers at 2, braids at 3, braid members at 4 and path
	// vertices at 5.
	var nl [6]string
	for d := range nl {
		nl[d] = "\n" + prefix + strings.Repeat("  ", d)
	}
	b := slices.Grow(dst, jsonSize(s, len(prefix))+len(defects))
	appendInt := func(n int) { b = strconv.AppendInt(b, int64(n), 10) }
	member := func(d int, key string) {
		b = append(b, nl[d]...)
		b = append(b, '"')
		b = append(b, key...)
		b = append(b, `": `...)
	}
	// intMember writes a number member that another member follows.
	intMember := func(d int, key string, n int) {
		member(d, key)
		appendInt(n)
		b = append(b, ',')
	}
	// ints writes a list member's value with its elements at depth d+1.
	// The form holds copies of the layout and the paths, and a copy of
	// an empty list is nil, which encoding/json writes as null.
	ints := func(vs []int, d int) {
		if len(vs) == 0 {
			b = append(b, "null"...)
			return
		}
		b = append(b, '[')
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, nl[d+1]...)
			appendInt(v)
		}
		b = append(b, nl[d]...)
		b = append(b, ']')
	}

	b = append(b, '{')
	intMember(1, "version", jsonVersion)
	intMember(1, "grid_w", g.W)
	intMember(1, "grid_h", g.H)
	reserved := false
	for t := 0; t < g.Tiles(); t++ {
		if !g.Reserved(t) {
			continue
		}
		if !reserved {
			member(1, "reserved")
			b = append(b, '[')
			reserved = true
		} else {
			b = append(b, ',')
		}
		b = append(b, nl[2]...)
		appendInt(t)
	}
	if reserved {
		b = append(b, nl[1]...)
		b = append(b, "],"...)
	}
	if defects != nil {
		member(1, "defects")
		b = append(b, defects...)
		b = append(b, ',')
	}
	intMember(1, "qubits", len(s.Initial.QubitTile))
	member(1, "initial")
	ints(s.Initial.QubitTile, 1)
	b = append(b, ',')
	member(1, "layers")
	if len(s.Layers) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for li, layer := range s.Layers {
			if li > 0 {
				b = append(b, ',')
			}
			b = append(b, nl[2]...)
			if len(layer) == 0 {
				b = append(b, "[]"...) // the form's layers are made, never nil
				continue
			}
			b = append(b, '[')
			for bi, br := range layer {
				if bi > 0 {
					b = append(b, ',')
				}
				b = append(b, nl[3]...)
				b = append(b, '{')
				intMember(4, "gate", br.Gate)
				intMember(4, "ctl", br.CtlTile)
				intMember(4, "tgt", br.TgtTile)
				member(4, "path")
				ints(br.Path, 4)
				if br.SwapTiles {
					b = append(b, ',')
					member(4, "swap")
					b = append(b, "true"...)
				}
				b = append(b, nl[3]...)
				b = append(b, '}')
			}
			b = append(b, nl[2]...)
			b = append(b, ']')
		}
		b = append(b, nl[1]...)
		b = append(b, ']')
	}
	b = append(b, nl[0]...)
	b = append(b, '}')
	return b, nil
}

// jsonSize bounds the bytes AppendJSON writes for s at a prefix of
// prefixLen bytes, defects aside, from the layer, braid and path counts
// and the widest number each kind of field can hold.
func jsonSize(s *Schedule, prefixLen int) int {
	tiles, vertices, gates := digits(s.Grid.Tiles()), digits(s.Grid.NumVertices()), 2
	braids, vertexCount := 0, 0
	for _, layer := range s.Layers {
		braids += len(layer)
		for _, br := range layer {
			vertexCount += len(br.Path)
			gates = max(gates, digits(br.Gate))
		}
	}
	reserved := 0
	for t := 0; t < s.Grid.Tiles(); t++ {
		if s.Grid.Reserved(t) {
			reserved++
		}
	}
	line := prefixLen + 1 // a newline and the prefix
	n := 12*(line+24) + 3*tiles
	n += (reserved + len(s.Initial.QubitTile)) * (line + 5 + tiles)
	n += len(s.Layers) * (2*(line+5) + 1)
	// A braid's lines: its braces, gate, ctl, tgt, the path's brackets
	// and swap, each at depth 3 or 4.
	n += braids * (8*(line+8) + 64 + gates + 2*tiles)
	n += vertexCount * (line + 11 + vertices)
	return n
}

// digits is the width of n in decimal, a sign included.
func digits(n int) int {
	w := 1
	if n < 0 {
		w++
	}
	for n >= 10 || n <= -10 {
		n /= 10
		w++
	}
	return w
}

// DecodeJSON reconstructs a schedule (including its grid and layout)
// from EncodeJSON output. The result still needs Validate against the
// matching circuit before being trusted.
func DecodeJSON(data []byte) (*Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	if js.Version != jsonVersion {
		return nil, fmt.Errorf("sched: unsupported schedule version %d", js.Version)
	}
	var layers []Layer
	for _, jl := range js.Layers {
		layer := make(Layer, len(jl))
		for i, jb := range jl {
			layer[i] = Braid{
				Gate: jb.Gate, CtlTile: jb.CtlTile, TgtTile: jb.TgtTile,
				Path: route.Path(jb.Path), SwapTiles: jb.SwapTiles,
			}
		}
		layers = append(layers, layer)
	}
	return Assemble(js.GridW, js.GridH, js.Reserved, js.Defects, js.Qubits, js.Initial, layers)
}
