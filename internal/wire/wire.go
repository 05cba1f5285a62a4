// Package wire is the serialization layer of the HiLight stack: the
// codecs every tier — the service schedule cache, the job journal, the
// HTTP API, and the CLIs — routes schedule and defect-map bytes through,
// instead of hard-coding one encoding.
//
// There are two codecs:
//
//   - "json": the verbose, human-readable debug/interop format. It
//     delegates to the original sched/grid JSON encoders, so its bytes
//     are exactly what the repo has always produced (the golden fixtures
//     pin this).
//   - "binary": a compact, versioned, schema-assumed binary format
//     (magic+version header, varint integers, delta-encoded braiding
//     path vertices, bitset defect masks; no embedded compression) — the
//     LightWeight-objective encoding for caches and high-volume clients.
//
// The package also defines the frame-based streaming form of a schedule
// (see stream.go): braiding layers encoded and emitted one frame at a
// time while the router produces them, so a client can consume cycle 0
// before the compile finishes.
package wire

import (
	"hilight/internal/grid"
	"hilight/internal/sched"
)

// Codec is one schedule/defect-map serialization. Implementations must
// be stateless and safe for concurrent use; Encode must be byte-stable
// (equal inputs yield equal bytes) because cache keys, goldens, and the
// chaos harness's determinism ledger all rely on it.
type Codec interface {
	// Name identifies the codec ("json", "binary").
	Name() string
	// ContentType is the MIME type used for HTTP content negotiation.
	ContentType() string
	// Encode serializes a schedule (with its grid, reserved tiles,
	// defects, and initial layout).
	Encode(s *sched.Schedule) ([]byte, error)
	// Decode reconstructs a schedule from Encode output. The result
	// still needs sched.Validate against the matching circuit before
	// being trusted.
	Decode(data []byte) (*sched.Schedule, error)
	// EncodeDefects serializes a standalone defect map.
	EncodeDefects(d *grid.DefectMap) ([]byte, error)
	// DecodeDefects reconstructs a defect map from EncodeDefects output.
	DecodeDefects(data []byte) (*grid.DefectMap, error)
}

// BinaryEnvelopeContentType is the node-to-node negotiation form: the
// JSON response envelope (full metadata, exactly the historical field
// set) carrying the schedule as the binary payload (schedule_bin)
// instead of inline JSON. It is not a Codec — the envelope belongs to
// the service layer — but the content type lives here beside its
// binary sibling so the wire contract has one home.
const BinaryEnvelopeContentType = "application/x-hilight-sched+json"

// The codecs.
var (
	// JSON is the debug/interop codec: byte-identical to the historical
	// sched.EncodeJSON / grid.EncodeDefects output.
	JSON Codec = jsonCodec{}
	// Binary is the versioned compact codec (see binary.go for the frame
	// layout).
	Binary Codec = binaryCodec{}
)

// jsonCodec adapts the historical JSON encoders to the Codec interface.
// Its bytes are pinned by the existing golden fixtures: it MUST stay a
// pure delegation.
type jsonCodec struct{}

func (jsonCodec) Name() string        { return "json" }
func (jsonCodec) ContentType() string { return "application/json" }

func (jsonCodec) Encode(s *sched.Schedule) ([]byte, error) { return sched.EncodeJSON(s) }
func (jsonCodec) Decode(data []byte) (*sched.Schedule, error) {
	return sched.DecodeJSON(data)
}
func (jsonCodec) EncodeDefects(d *grid.DefectMap) ([]byte, error) { return grid.EncodeDefects(d) }
func (jsonCodec) DecodeDefects(data []byte) (*grid.DefectMap, error) {
	return grid.DecodeDefects(data)
}
