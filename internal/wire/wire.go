// Package wire is the binary serialization layer of the HiLight stack:
// the compact schedule and defect-map encoding every tier — the service
// schedule cache, the job journal, the HTTP API, and the CLIs — routes
// stored and high-volume bytes through. The verbose, human-readable JSON
// form stays with the sched and grid encoders (hilight.EncodeScheduleJSON
// and EncodeDefects).
//
// Binary is a compact, versioned, schema-assumed format (magic+version
// header, varint integers, delta-encoded braiding path vertices, bitset
// defect masks; no embedded compression) — the LightWeight-objective
// encoding for caches and high-volume clients. Its Encode must stay
// byte-stable (equal inputs yield equal bytes): cache keys, goldens, and
// the chaos harness's determinism ledger all rely on it.
//
// The package also defines the frame-based streaming form of a schedule
// (see stream.go): braiding layers encoded and emitted one frame at a
// time while the router produces them, so a client can consume cycle 0
// before the compile finishes.
package wire

// BinaryEnvelopeContentType is the node-to-node negotiation form: the
// JSON response envelope (full metadata, exactly the historical field
// set) carrying the schedule as the binary payload (schedule_bin)
// instead of inline JSON. The envelope belongs to the service layer, but
// the content type lives here beside Binary's so the wire contract has
// one home.
const BinaryEnvelopeContentType = "application/x-hilight-sched+json"

// Binary is the versioned compact codec (see binary.go for the frame
// layout). It is stateless and safe for concurrent use.
var Binary = binaryCodec{}
