package hilight

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

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
// The circuit is canonicalized through its OpenQASM rendering (gate list
// and width; the circuit's display name does not participate), and
// defect maps are canonicalized by sorting, so permuted but equal maps
// fingerprint identically. This is the content-address used by the
// hilightd schedule cache.
func Fingerprint(c *Circuit, g *Grid, opts ...Option) (string, error) {
	if c == nil {
		return "", ErrNilCircuit
	}
	if g == nil {
		return "", ErrNilGrid
	}
	o := newOptions(opts)

	h := sha256.New()
	fmt.Fprintf(h, "%s\n", fingerprintVersion)
	fmt.Fprintf(h, "method=%s\n", o.method)
	fmt.Fprintf(h, "seed=%d\n", o.seed)
	switch {
	case o.qco == nil:
		io.WriteString(h, "qco=unset\n")
	case *o.qco:
		io.WriteString(h, "qco=true\n")
	default:
		io.WriteString(h, "qco=false\n")
	}
	fmt.Fprintf(h, "compact=%t\n", o.compact)
	fmt.Fprintf(h, "fallback=%d", len(o.fallback))
	for _, m := range o.fallback {
		fmt.Fprintf(h, ",%s", m)
	}
	io.WriteString(h, "\n")

	// Grid identity: dimensions, factory reservation, and baked-in
	// defects. Reserved tiles are enumerated in tile order, defects
	// through the sorted DefectMap view, so the encoding is canonical.
	fmt.Fprintf(h, "grid=%dx%d\nreserved=", g.W, g.H)
	for t := 0; t < g.Tiles(); t++ {
		if g.Reserved(t) {
			fmt.Fprintf(h, "%d,", t)
		}
	}
	io.WriteString(h, "\ngrid-defects=")
	hashDefects(h, g.Defects())
	// A WithDefects map is applied on top of the grid's own defects at
	// compile time; hash it as a separate canonical section.
	io.WriteString(h, "\nopt-defects=")
	hashDefects(h, o.defects)
	io.WriteString(h, "\n")

	src := qasm.Format(c)
	fmt.Fprintf(h, "qasm:%d\n%s", len(src), src)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashDefects writes a canonical rendering of d: entries sorted, so
// permuted but semantically equal maps hash identically. A nil or empty
// map hashes as the fixed empty form.
func hashDefects(w io.Writer, d *DefectMap) {
	if d.Empty() {
		io.WriteString(w, "empty")
		return
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
	fmt.Fprintf(w, "t%v v%v c%v", tiles, verts, chans)
}
