package hilight

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"hilight/internal/qasm"
)

// fingerprintVersion is bumped whenever the digest input layout changes,
// so digests from different layouts can never collide.
const fingerprintVersion = "hilight-fp-v1"

// Fingerprint returns a stable hex digest identifying the compile a
// Compile(c, g, opts...) call would perform: two calls with semantically
// equal inputs produce the same digest in any process, and changing any
// input that can change the output — the circuit, the grid's shape,
// reserved tiles or defects, a WithDefects map, the method, the seed,
// the QCO override, compaction, or the fallback chain — produces a
// different digest. Options that cannot change the produced schedule
// (WithContext, WithTimeout, WithObserver, WithMetrics, WithEvents and
// the no-op WithRouteWorkers) are excluded, so one fingerprint names one
// schedule: a cache keyed by it may serve a result compiled under
// different instrumentation, byte for byte the schedule this call would
// compile.
//
// The circuit is canonicalized through its OpenQASM source as
// qasm.Append writes it (gate list and width; the circuit's display name
// does not participate), and defect maps are canonicalized by sorting,
// so permuted but equal maps fingerprint identically. The whole
// canonical form is built in one buffer and hashed from it. This is the
// content-address used by the hilightd schedule cache.
func Fingerprint(c *Circuit, g *Grid, opts ...Option) (string, error) {
	if c == nil {
		return "", ErrNilCircuit
	}
	if g == nil {
		return "", ErrNilGrid
	}
	o := newOptions(opts)

	b := make([]byte, 0, 256)
	b = append(b, fingerprintVersion+"\nmethod="...)
	b = append(b, o.method...)
	b = strconv.AppendInt(append(b, "\nseed="...), o.seed, 10)
	switch {
	case o.qco == nil:
		b = append(b, "\nqco=unset"...)
	case *o.qco:
		b = append(b, "\nqco=true"...)
	default:
		b = append(b, "\nqco=false"...)
	}
	b = strconv.AppendBool(append(b, "\ncompact="...), o.compact)
	b = strconv.AppendInt(append(b, "\nfallback="...), int64(len(o.fallback)), 10)
	for _, m := range o.fallback {
		b = append(append(b, ','), m...)
	}

	// Grid identity: dimensions, factory reservation, and baked-in
	// defects. Reserved tiles are enumerated in tile order, defects
	// through the sorted DefectMap view, so the encoding is canonical.
	b = strconv.AppendInt(append(b, "\ngrid="...), int64(g.W), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(g.H), 10)
	b = append(b, "\nreserved="...)
	for t := 0; t < g.Tiles(); t++ {
		if g.Reserved(t) {
			b = append(strconv.AppendInt(b, int64(t), 10), ',')
		}
	}
	b = appendDefects(append(b, "\ngrid-defects="...), g.Defects())
	// A WithDefects map is applied on top of the grid's own defects at
	// compile time; hash it as a separate canonical section.
	b = appendDefects(append(b, "\nopt-defects="...), o.defects)
	b = append(b, '\n')

	// The circuit goes in as its QASM source behind a "qasm:<len>" line.
	// The length is known only once the source is written, so that line
	// is appended after the source and hashed before it.
	head := len(b)
	b = qasm.Append(b, c)
	src := b[head:]
	b = append(strconv.AppendInt(append(b, "qasm:"...), int64(len(src)), 10), '\n')
	h := sha256.New()
	h.Write(b[:head])
	h.Write(b[head+len(src):])
	h.Write(src)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// appendDefects appends a canonical rendering of d: entries sorted and
// channels normalized, so permuted but semantically equal maps hash
// identically, in the layout fmt's %v gives the three lists
// ("t[1 2] v[] c[[3 4]]"). A nil or empty map is the fixed empty form.
func appendDefects(b []byte, d *DefectMap) []byte {
	if d.Empty() {
		return append(b, "empty"...)
	}
	tiles := append([]int(nil), d.Tiles...)
	verts := append([]int(nil), d.Vertices...)
	chans := append([][2]int(nil), d.Channels...)
	// EdgeID treats [u,v] and [v,u] as the same channel; normalize so
	// they fingerprint identically too.
	for i, ch := range chans {
		if ch[0] > ch[1] {
			chans[i] = [2]int{ch[1], ch[0]}
		}
	}
	sort.Ints(tiles)
	sort.Ints(verts)
	sort.Slice(chans, func(i, j int) bool {
		if chans[i][0] != chans[j][0] {
			return chans[i][0] < chans[j][0]
		}
		return chans[i][1] < chans[j][1]
	})
	b = appendInts(append(b, 't'), tiles)
	b = appendInts(append(b, " v"...), verts)
	b = append(b, " c["...)
	for i, ch := range chans {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInts(b, ch[:])
	}
	return append(b, ']')
}

// appendInts appends xs as fmt's %v writes an int slice: "[1 2 3]".
func appendInts(b []byte, xs []int) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
