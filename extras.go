package hilight

import (
	"hilight/internal/lattice"
	"hilight/internal/revlib"
	"hilight/internal/sched"
	"hilight/internal/viz"
	"hilight/internal/wire"
)

// Lowering is the physical-lattice realization of a schedule at a code
// distance (see LowerSchedule).
type Lowering = lattice.Lowering

// LowerSchedule expands a braiding schedule down to the physical
// surface-code lattice at code distance d: every braid becomes a
// stabilizer-tear corridor, and the lowering fails loudly if two
// same-cycle corridors would ever touch — the physical soundness check
// of the 2D conflict model.
func LowerSchedule(s *Schedule, d int) (*Lowering, error) { return lattice.Lower(s, d) }

// ParseReal parses a RevLib ".real" reversible-circuit file — the native
// format of the paper's building-block benchmarks — expanding Toffoli and
// Fredkin gates into their CX networks.
func ParseReal(name, src string) (*Circuit, error) { return revlib.Parse(name, src) }

// EncodeScheduleJSON serializes a schedule (with its grid and initial
// layout) to a stable, versioned JSON form.
func EncodeScheduleJSON(s *Schedule) ([]byte, error) { return sched.EncodeJSON(s) }

// DecodeScheduleJSON reconstructs a schedule from EncodeScheduleJSON
// output. Validate it against its circuit before trusting it.
func DecodeScheduleJSON(data []byte) (*Schedule, error) { return sched.DecodeJSON(data) }

// EncodeScheduleBinary serializes a schedule in the versioned binary
// wire format — typically 10-20× smaller than the JSON form (varint
// integers, delta-encoded braiding paths, bitset defect masks). The
// encoding is byte-stable; both forms decode to byte-identically
// re-encodable schedules, so either may be cached or content-addressed.
func EncodeScheduleBinary(s *Schedule) ([]byte, error) { return wire.Binary.Encode(s) }

// DecodeScheduleBinary reconstructs a schedule from EncodeScheduleBinary
// output, rejecting truncated, corrupt, or future-versioned payloads.
// Validate it against its circuit before trusting it.
func DecodeScheduleBinary(data []byte) (*Schedule, error) { return wire.Binary.Decode(data) }

// EncodeDefectsBinary serializes a defect map in the binary wire format.
// Unlike EncodeDefects it is compact rather than readable; both
// round-trip the map exactly.
func EncodeDefectsBinary(d *DefectMap) ([]byte, error) { return wire.Binary.EncodeDefects(d) }

// DecodeDefectsBinary parses EncodeDefectsBinary output; the map is
// validated against the target grid when applied.
func DecodeDefectsBinary(data []byte) (*DefectMap, error) { return wire.Binary.DecodeDefects(data) }

// RenderLayout draws the grid and qubit layout as an ASCII diagram
// (reserved factory tiles render as ###).
func RenderLayout(g *Grid, l *Layout) string { return viz.Layout(g, l) }

// RenderSchedule draws up to maxLayers braiding cycles of a schedule,
// replaying layout changes from inserted SWAPs; maxLayers ≤ 0 draws all.
func RenderSchedule(s *Schedule, maxLayers int) string { return viz.Schedule(s, maxLayers) }

// RenderHeat draws a channel-usage heat map of the whole schedule:
// hotter glyphs mark routing channels more braids crossed.
func RenderHeat(s *Schedule) string { return viz.Heat(s) }

// RenderSVG renders up to maxLayers braiding cycles as a standalone SVG
// document (one frame per cycle, braids as colored polylines, factory
// tiles marked); maxLayers ≤ 0 renders every cycle.
func RenderSVG(s *Schedule, maxLayers int) string { return viz.SVG(s, maxLayers) }

// ScheduleDiff summarizes how two schedules for the same circuit differ
// (latency, path length, rescheduled and re-routed gates) — the
// regression view for heuristic work.
type ScheduleDiff = sched.Diff

// CompareSchedules computes a ScheduleDiff between two schedules.
func CompareSchedules(a, b *Schedule) ScheduleDiff { return sched.Compare(a, b) }
