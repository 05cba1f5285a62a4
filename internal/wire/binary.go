package wire

import (
	"encoding/binary"
	"fmt"

	"hilight/internal/grid"
	"hilight/internal/route"
	"hilight/internal/sched"
)

// Binary wire format v1.
//
// Every payload opens with a 4-byte header: the magic bytes 'H' 'L', a
// kind byte, and a format version byte. Kinds:
//
//	'S'  full schedule
//	'D'  standalone defect map
//	'T'  layer stream (see stream.go)
//
// All integers are varints (unsigned where the value is a count or a
// non-negative id by construction, zigzag-signed where -1 or deltas can
// occur). Schedule body, in order:
//
//	uvarint gridW, uvarint gridH
//	uvarint #reserved, then reserved tile ids as zigzag deltas
//	defects presence byte (0|1); if 1, three bitsets (LSB-first, sized
//	  from the grid dims): tiles, vertices, edges-by-EdgeID
//	uvarint #qubits, then per qubit uvarint(tile+1)  (0 means unplaced)
//	uvarint #layers, then each layer
//
// Layer body: uvarint #braids, then per braid a flag byte (bit0 =
// swap-tiles), varint gate, varint ctl tile, varint tgt tile, uvarint
// path length, then the path as varint first-vertex plus zigzag deltas —
// consecutive path vertices are lattice neighbours (±1 or ±(W+1)), so
// deltas are 1-byte almost always.
//
// Standalone defect-map body: three delta lists (uvarint count + zigzag
// deltas) for tiles and vertices, then uvarint #channels with per
// channel varint(u−prevU), varint(v−u). Lists round-trip exactly —
// order and duplicates included — because a standalone map has no grid
// to canonicalize against.
//
// Version bumps are append-only: a v2 decoder must keep decoding v1
// payloads; a v1 decoder rejects v2 with an "unsupported version" error
// rather than guessing.
const (
	magic0 = 'H'
	magic1 = 'L'

	kindSchedule = 'S'
	kindDefects  = 'D'
	kindStream   = 'T'

	binaryVersion = 1

	headerLen = 4
)

// binaryCodec implements the compact format, exported as wire.Binary.
type binaryCodec struct{}

// ContentType is the MIME type of the raw binary schedule payload, used
// for HTTP content negotiation.
func (binaryCodec) ContentType() string { return "application/x-hilight-sched" }

func header(kind byte) []byte { return []byte{magic0, magic1, kind, binaryVersion} }

// checkHeader strips and validates the 4-byte header, returning the body.
func checkHeader(data []byte, kind byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("wire: truncated header (%d bytes)", len(data))
	}
	if data[0] != magic0 || data[1] != magic1 {
		return nil, fmt.Errorf("wire: bad magic %#x %#x", data[0], data[1])
	}
	if data[2] != kind {
		return nil, fmt.Errorf("wire: payload kind %q, want %q", data[2], kind)
	}
	if data[3] != binaryVersion {
		return nil, fmt.Errorf("wire: unsupported version %d", data[3])
	}
	return data[headerLen:], nil
}

// Encode serializes the schedule in binary form.
func (binaryCodec) Encode(s *sched.Schedule) ([]byte, error) {
	if s.Grid == nil || s.Initial == nil {
		return nil, fmt.Errorf("wire: schedule missing grid or initial layout")
	}
	b := header(kindSchedule)
	var err error
	if b, err = appendPreamble(b, s.Grid, s.Initial); err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(s.Layers)))
	for _, layer := range s.Layers {
		b = appendLayer(b, layer)
	}
	return b, nil
}

// appendPreamble encodes everything but the layers: grid shape, reserved
// tiles, defect bitsets, and the initial layout. The stream encoder
// reuses it as the 'G' frame payload.
func appendPreamble(b []byte, g *grid.Grid, initial *grid.Layout) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(g.W))
	b = binary.AppendUvarint(b, uint64(g.H))

	var reserved []int
	for t := 0; t < g.Tiles(); t++ {
		if g.Reserved(t) {
			reserved = append(reserved, t)
		}
	}
	b = appendDeltaList(b, reserved)

	d := g.Defects()
	if d.Empty() {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		tiles := newBitset(g.Tiles())
		for _, t := range d.Tiles {
			tiles.set(t)
		}
		verts := newBitset(g.NumVertices())
		for _, v := range d.Vertices {
			verts.set(v)
		}
		edges := newBitset(g.NumEdges())
		for _, ch := range d.Channels {
			edges.set(g.EdgeID(ch[0], ch[1]))
		}
		b = append(b, tiles...)
		b = append(b, verts...)
		b = append(b, edges...)
	}

	b = binary.AppendUvarint(b, uint64(len(initial.QubitTile)))
	for _, t := range initial.QubitTile {
		if t < -1 {
			return nil, fmt.Errorf("wire: qubit tile %d invalid", t)
		}
		b = binary.AppendUvarint(b, uint64(t+1))
	}
	return b, nil
}

// appendLayer encodes one braiding layer. Shared by the full-schedule
// encoder and the stream encoder's 'L' frames.
func appendLayer(b []byte, layer sched.Layer) []byte {
	b = binary.AppendUvarint(b, uint64(len(layer)))
	for _, br := range layer {
		var flags byte
		if br.SwapTiles {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.AppendVarint(b, int64(br.Gate))
		b = binary.AppendVarint(b, int64(br.CtlTile))
		b = binary.AppendVarint(b, int64(br.TgtTile))
		b = binary.AppendUvarint(b, uint64(len(br.Path)))
		prev := int64(0)
		for i, v := range br.Path {
			if i == 0 {
				b = binary.AppendVarint(b, int64(v))
			} else {
				b = binary.AppendVarint(b, int64(v)-prev)
			}
			prev = int64(v)
		}
	}
	return b
}

// Decode reconstructs a schedule from Encode output, sharing validation
// with the JSON decoder via sched.Assemble. Counts are bounded by the
// remaining input before any allocation, so truncated or hostile data
// fails with an error instead of a panic or a giant make().
func (binaryCodec) Decode(data []byte) (*sched.Schedule, error) {
	body, err := checkHeader(data, kindSchedule)
	if err != nil {
		return nil, err
	}
	r := &reader{b: body}
	pre, err := decodePreamble(r)
	if err != nil {
		return nil, err
	}
	nLayers, err := r.count("layers")
	if err != nil {
		return nil, err
	}
	var layers []sched.Layer
	for i := 0; i < nLayers; i++ {
		layer, err := decodeLayer(r)
		if err != nil {
			return nil, fmt.Errorf("wire: layer %d: %w", i, err)
		}
		layers = append(layers, layer)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.remaining())
	}
	return sched.Assemble(pre.gridW, pre.gridH, pre.reserved, pre.defects, pre.qubits, pre.initial, layers)
}

// preamble is the decoded grid/layout portion of a schedule.
type preamble struct {
	gridW, gridH int
	reserved     []int
	defects      *grid.DefectMap
	qubits       int
	initial      []int
}

func decodePreamble(r *reader) (preamble, error) {
	var pre preamble
	w, err := r.uvarint()
	if err != nil {
		return pre, err
	}
	h, err := r.uvarint()
	if err != nil {
		return pre, err
	}
	if w == 0 || h == 0 || w > sched.MaxGridTiles || h > sched.MaxGridTiles || w*h > sched.MaxGridTiles {
		return pre, fmt.Errorf("wire: bad grid dimensions %dx%d", w, h)
	}
	pre.gridW, pre.gridH = int(w), int(h)

	if pre.reserved, err = r.deltaList("reserved"); err != nil {
		return pre, err
	}

	flag, err := r.byte()
	if err != nil {
		return pre, err
	}
	switch flag {
	case 0:
	case 1:
		d, err := decodeDefectBitsets(r, pre.gridW, pre.gridH)
		if err != nil {
			return pre, err
		}
		pre.defects = d
	default:
		return pre, fmt.Errorf("wire: bad defects flag %d", flag)
	}

	nq, err := r.count("qubits")
	if err != nil {
		return pre, err
	}
	pre.qubits = nq
	pre.initial = make([]int, nq)
	for q := range pre.initial {
		t, err := r.uvarint()
		if err != nil {
			return pre, err
		}
		if t > uint64(sched.MaxGridTiles) {
			return pre, fmt.Errorf("wire: qubit %d tile %d out of range", q, t)
		}
		pre.initial[q] = int(t) - 1
	}
	return pre, nil
}

// decodeDefectBitsets reads the three fixed-size masks and converts them
// back into the sorted list form grid.Defects() produces. Ascending
// bit/edge-id order matches that sort, so a round-tripped schedule
// re-encodes to byte-identical JSON.
func decodeDefectBitsets(r *reader, gridW, gridH int) (*grid.DefectMap, error) {
	nTiles := gridW * gridH
	vw, vh := gridW+1, gridH+1
	nVerts := vw * vh
	nEdges := 2 * nVerts

	tiles, err := r.bytes(bitsetLen(nTiles))
	if err != nil {
		return nil, err
	}
	verts, err := r.bytes(bitsetLen(nVerts))
	if err != nil {
		return nil, err
	}
	edges, err := r.bytes(bitsetLen(nEdges))
	if err != nil {
		return nil, err
	}
	d := &grid.DefectMap{}
	for t := 0; t < nTiles; t++ {
		if bitset(tiles).get(t) {
			d.Tiles = append(d.Tiles, t)
		}
	}
	if err := checkBitsetTail(tiles, nTiles, "tile"); err != nil {
		return nil, err
	}
	for v := 0; v < nVerts; v++ {
		if bitset(verts).get(v) {
			d.Vertices = append(d.Vertices, v)
		}
	}
	if err := checkBitsetTail(verts, nVerts, "vertex"); err != nil {
		return nil, err
	}
	for id := 0; id < nEdges; id++ {
		if !bitset(edges).get(id) {
			continue
		}
		u := id / 2
		ux, uy := u%vw, u/vw
		var v int
		if id%2 == 0 { // horizontal
			if ux >= gridW {
				return nil, fmt.Errorf("wire: defect edge %d off lattice", id)
			}
			v = u + 1
		} else { // vertical
			if uy >= gridH {
				return nil, fmt.Errorf("wire: defect edge %d off lattice", id)
			}
			v = u + vw
		}
		d.Channels = append(d.Channels, [2]int{u, v})
	}
	if err := checkBitsetTail(edges, nEdges, "edge"); err != nil {
		return nil, err
	}
	if d.Empty() {
		return nil, fmt.Errorf("wire: defects flag set but all masks empty")
	}
	return d, nil
}

func decodeLayer(r *reader) (sched.Layer, error) {
	nBraids, err := r.count("braids")
	if err != nil {
		return nil, err
	}
	layer := make(sched.Layer, nBraids)
	for i := range layer {
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		if flags > 1 {
			return nil, fmt.Errorf("wire: braid %d: bad flags %#x", i, flags)
		}
		gate, err := r.varint()
		if err != nil {
			return nil, err
		}
		ctl, err := r.varint()
		if err != nil {
			return nil, err
		}
		tgt, err := r.varint()
		if err != nil {
			return nil, err
		}
		pathLen, err := r.count("path vertices")
		if err != nil {
			return nil, err
		}
		var path route.Path
		if pathLen > 0 {
			path = make(route.Path, pathLen)
			prev := int64(0)
			for j := range path {
				dv, err := r.varint()
				if err != nil {
					return nil, err
				}
				v := dv
				if j > 0 {
					v += prev
				}
				if v < -1 || v > int64(2*(sched.MaxGridTiles+1)*(sched.MaxGridTiles+1)) {
					return nil, fmt.Errorf("wire: braid %d: path vertex %d out of range", i, v)
				}
				path[j] = int(v)
				prev = v
			}
		}
		layer[i] = sched.Braid{
			Gate: int(gate), CtlTile: int(ctl), TgtTile: int(tgt),
			Path: path, SwapTiles: flags&1 != 0,
		}
	}
	return layer, nil
}

// EncodeDefects serializes a standalone defect map. Unlike the bitset
// masks embedded in a schedule, a standalone map has no grid dims, so it
// uses delta lists that preserve element order and duplicates exactly.
func (binaryCodec) EncodeDefects(d *grid.DefectMap) ([]byte, error) {
	if d == nil {
		d = &grid.DefectMap{}
	}
	b := header(kindDefects)
	b = appendDeltaList(b, d.Tiles)
	b = appendDeltaList(b, d.Vertices)
	b = binary.AppendUvarint(b, uint64(len(d.Channels)))
	prevU := int64(0)
	for _, ch := range d.Channels {
		u, v := int64(ch[0]), int64(ch[1])
		b = binary.AppendVarint(b, u-prevU)
		b = binary.AppendVarint(b, v-u)
		prevU = u
	}
	return b, nil
}

// DecodeDefects reconstructs a defect map from EncodeDefects output.
func (binaryCodec) DecodeDefects(data []byte) (*grid.DefectMap, error) {
	body, err := checkHeader(data, kindDefects)
	if err != nil {
		return nil, err
	}
	r := &reader{b: body}
	d := &grid.DefectMap{}
	if d.Tiles, err = r.deltaList("defect tiles"); err != nil {
		return nil, err
	}
	if d.Vertices, err = r.deltaList("defect vertices"); err != nil {
		return nil, err
	}
	nCh, err := r.count("defect channels")
	if err != nil {
		return nil, err
	}
	if nCh > 0 {
		d.Channels = make([][2]int, nCh)
		prevU := int64(0)
		for i := range d.Channels {
			du, err := r.varint()
			if err != nil {
				return nil, err
			}
			dv, err := r.varint()
			if err != nil {
				return nil, err
			}
			u := prevU + du
			v := u + dv
			if u < 0 || v < 0 || u > int64(sched.MaxGridTiles)*4 || v > int64(sched.MaxGridTiles)*4 {
				return nil, fmt.Errorf("wire: defect channel %d endpoints out of range", i)
			}
			d.Channels[i] = [2]int{int(u), int(v)}
			prevU = u
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", r.remaining())
	}
	return d, nil
}

// appendDeltaList writes a zigzag delta list: uvarint count, then each
// element minus its predecessor (first minus zero).
func appendDeltaList(b []byte, list []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	prev := int64(0)
	for _, x := range list {
		b = binary.AppendVarint(b, int64(x)-prev)
		prev = int64(x)
	}
	return b
}

// bitset is an LSB-first bit mask.
type bitset []byte

func bitsetLen(n int) int { return (n + 7) / 8 }

func newBitset(n int) bitset { return make(bitset, bitsetLen(n)) }

func (s bitset) set(i int)      { s[i/8] |= 1 << (i % 8) }
func (s bitset) get(i int) bool { return s[i/8]&(1<<(i%8)) != 0 }

// checkBitsetTail rejects set bits beyond the logical size — the only
// way to smuggle undecodable state through a fixed-size mask.
func checkBitsetTail(s []byte, n int, what string) error {
	for i := n; i < len(s)*8; i++ {
		if bitset(s).get(i) {
			return fmt.Errorf("wire: %s bitset has bit %d beyond size %d", what, i, n)
		}
	}
	return nil
}

// reader decodes varints from a byte slice with explicit bounds errors —
// no panics, no reading past the end.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("wire: truncated input at byte %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("wire: truncated input: need %d bytes at %d, have %d", n, r.off, r.remaining())
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads an element count and bounds it by the remaining input —
// every element costs at least one byte, so a count larger than the
// bytes left is provably hostile and rejected BEFORE any allocation.
func (r *reader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("wire: %s count %d exceeds %d remaining bytes", what, v, r.remaining())
	}
	return int(v), nil
}

// deltaList reads an appendDeltaList-encoded list with full bounds
// checks; elements must stay non-negative and under the grid bound.
func (r *reader) deltaList(what string) ([]int, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	prev := int64(0)
	for i := range out {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		x := prev + d
		if x < 0 || x > int64(sched.MaxGridTiles)*4 {
			return nil, fmt.Errorf("wire: %s element %d out of range", what, i)
		}
		out[i] = int(x)
		prev = x
	}
	return out, nil
}
