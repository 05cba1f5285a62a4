package grid

import (
	"encoding/json"
	"fmt"
	"sort"
)

// DefectMap describes fabrication defects of a grid: dead tiles (cannot
// host a program qubit), dead routing vertices (no braid may pass
// through), and broken routing channels. It is the serializable form;
// ApplyDefects folds it into a Grid.
type DefectMap struct {
	Tiles    []int    `json:"tiles,omitempty"`
	Vertices []int    `json:"vertices,omitempty"`
	Channels [][2]int `json:"channels,omitempty"` // adjacent vertex-id pairs
}

// Empty reports whether the map disables nothing.
func (d *DefectMap) Empty() bool {
	return d == nil || (len(d.Tiles) == 0 && len(d.Vertices) == 0 && len(d.Channels) == 0)
}

// Validate checks every entry against g's geometry: tile and vertex ids in
// range, channel endpoints adjacent lattice vertices. It returns the first
// problem or nil.
func (d *DefectMap) Validate(g *Grid) error {
	if d == nil {
		return nil
	}
	for _, t := range d.Tiles {
		if t < 0 || t >= g.Tiles() {
			return fmt.Errorf("grid: defect tile %d out of range for %dx%d", t, g.W, g.H)
		}
	}
	for _, v := range d.Vertices {
		if v < 0 || v >= g.NumVertices() {
			return fmt.Errorf("grid: defect vertex %d out of range", v)
		}
	}
	for _, ch := range d.Channels {
		u, v := ch[0], ch[1]
		if u < 0 || u >= g.NumVertices() || v < 0 || v >= g.NumVertices() {
			return fmt.Errorf("grid: defect channel %d-%d out of range", u, v)
		}
		if g.VertexDist(u, v) != 1 {
			return fmt.Errorf("grid: defect channel %d-%d endpoints not adjacent", u, v)
		}
	}
	return nil
}

// EncodeDefects serializes a defect map as JSON.
func EncodeDefects(d *DefectMap) ([]byte, error) {
	if d == nil {
		d = &DefectMap{}
	}
	return json.MarshalIndent(d, "", "  ")
}

// DecodeDefects parses EncodeDefects output. The result still needs
// Validate (or ApplyDefects, which validates) against the target grid.
func DecodeDefects(data []byte) (*DefectMap, error) {
	var d DefectMap
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("grid: defect map: %w", err)
	}
	return &d, nil
}

// defectState is a Grid's fault annotation; nil on a pristine grid so the
// hot-path predicates stay a nil check.
type defectState struct {
	tile   []bool
	vertex []bool
	edge   []bool // by EdgeID
}

// ApplyDefects validates d and marks its tiles, vertices and channels
// defective on g. Applying several maps accumulates.
func (g *Grid) ApplyDefects(d *DefectMap) error {
	if err := d.Validate(g); err != nil {
		return err
	}
	if d.Empty() {
		return nil
	}
	g.ensureDefects()
	for _, t := range d.Tiles {
		g.def.tile[t] = true
	}
	for _, v := range d.Vertices {
		g.def.vertex[v] = true
	}
	for _, ch := range d.Channels {
		g.def.edge[g.EdgeID(ch[0], ch[1])] = true
	}
	return nil
}

func (g *Grid) ensureDefects() {
	if g.def == nil {
		g.def = &defectState{
			tile:   make([]bool, g.Tiles()),
			vertex: make([]bool, g.NumVertices()),
			edge:   make([]bool, g.NumEdges()),
		}
	}
}

// TileDefective reports whether tile t is a fabrication defect.
func (g *Grid) TileDefective(t int) bool {
	return g.def != nil && g.def.tile[t]
}

// VertexDefective reports whether routing vertex v is dead.
func (g *Grid) VertexDefective(v int) bool {
	return g.def != nil && g.def.vertex[v]
}

// ChannelDefective reports whether the channel between adjacent vertices
// u and v is broken (the channel itself; endpoint-vertex defects are
// reported by VertexDefective).
func (g *Grid) ChannelDefective(u, v int) bool {
	return g.def != nil && g.def.edge[g.EdgeID(u, v)]
}

// HasDefects reports whether any defect has been applied.
func (g *Grid) HasDefects() bool { return g.def != nil }

// Usable reports whether tile t can host a program qubit: neither
// reserved (factory region) nor defective.
func (g *Grid) Usable(t int) bool {
	return !g.reserved[t] && !(g.def != nil && g.def.tile[t])
}

// Defects returns the grid's defects as a sorted DefectMap (empty, not
// nil, for a pristine grid) — the JSON round-trip source.
func (g *Grid) Defects() *DefectMap {
	d := &DefectMap{}
	if g.def == nil {
		return d
	}
	for t, bad := range g.def.tile {
		if bad {
			d.Tiles = append(d.Tiles, t)
		}
	}
	for v, bad := range g.def.vertex {
		if bad {
			d.Vertices = append(d.Vertices, v)
		}
	}
	for id, bad := range g.def.edge {
		if !bad {
			continue
		}
		u, v := g.EdgeEndpoints(id)
		d.Channels = append(d.Channels, [2]int{u, v})
	}
	sort.Ints(d.Tiles)
	sort.Ints(d.Vertices)
	sort.Slice(d.Channels, func(i, j int) bool {
		if d.Channels[i][0] != d.Channels[j][0] {
			return d.Channels[i][0] < d.Channels[j][0]
		}
		return d.Channels[i][1] < d.Channels[j][1]
	})
	return d
}

// Clone returns a deep copy of the grid, including reservations and
// defects. Compile uses it so WithDefects never mutates a caller's grid.
func (g *Grid) Clone() *Grid {
	out := g.Healed()
	if g.def != nil {
		out.def = &defectState{
			tile:   append([]bool(nil), g.def.tile...),
			vertex: append([]bool(nil), g.def.vertex...),
			edge:   append([]bool(nil), g.def.edge...),
		}
	}
	return out
}

// Healed returns a copy of g with its reservations but none of its
// defects: the hardware a replacement defect map applies to.
func (g *Grid) Healed() *Grid {
	// Coordinate tables are immutable and dimension-determined — share them.
	return &Grid{W: g.W, H: g.H, reserved: append([]bool(nil), g.reserved...), anyReserved: g.anyReserved, vx: g.vx, vy: g.vy}
}
