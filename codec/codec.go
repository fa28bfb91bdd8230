// Package codec is the public extension point of the fixedpsnr
// compression stack: third-party pipelines implement the Codec interface
// and call Register, and from that moment every consumer of the module —
// fixedpsnr.Decompress, Encoder/Decoder sessions, archives, and the fpsz
// CLI — can decode their streams, routed by the codec byte recorded in
// each stream header. Compression with a registered pipeline is selected
// by name via fixedpsnr.Options.Codec or fixedpsnr.WithCodecName.
//
// The types here are aliases of the internal registry layer, so a codec
// written against this package is exactly a codec written inside the
// module:
//
//	type myCodec struct{}
//
//	func (myCodec) Name() string      { return "my" }
//	func (myCodec) IDs() []codec.ID   { return []codec.ID{42} }
//	func (myCodec) MeasuresMSE() bool { return false }
//	func (myCodec) Compress(ctx context.Context, f *codec.Field, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) { ... }
//	func (myCodec) Decompress(data []byte) (*codec.Field, *codec.Header, error) { ... }
//
//	func init() { codec.Register(myCodec{}) }
//
// Emit streams with codec.Header{Codec: 42, ...}.Marshal() followed by
// your payload; pick a stream ID that no registered codec claims
// (Register panics on collisions at init time, so clashes cannot ship).
package codec

import (
	icodec "fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Aliases of the shared container and registry types (see the internal
// codec package for full documentation).
type (
	// Codec is one compression pipeline behind the registry.
	Codec = icodec.Codec
	// ChunkCodec is the optional interface of pipelines that compress
	// and decompress one row-slab chunk at a time, unlocking streaming
	// encodes, region decodes, and selective recompression. Streams the
	// chunked container assembles carry the codec's first stream ID,
	// IDs()[0].
	ChunkCodec = icodec.ChunkCodec
	// ChunkInfo is one entry of a chunked stream's per-chunk index.
	ChunkInfo = icodec.ChunkInfo
	// ChunkStats is the per-chunk outcome a ChunkCodec reports.
	ChunkStats = icodec.ChunkStats
	// ID is the stream codec byte recorded in every header.
	ID = icodec.ID
	// Header is the self-describing stream header.
	Header = icodec.Header
	// Options is the unified per-codec configuration.
	Options = icodec.Options
	// Stats is the unified compression outcome report.
	Stats = icodec.Stats
	// Scratch holds pooled scratch buffers threaded through session
	// compressions; a nil *Scratch is always valid.
	Scratch = icodec.Scratch
	// Mode is the error-control mode byte annotated in headers.
	Mode = icodec.Mode
	// Transform selects the orthonormal block transform.
	Transform = icodec.Transform
	// Field is the N-dimensional data container codecs consume and
	// produce (same type as fixedpsnr.Field).
	Field = field.Field
	// Precision tags the storage precision of field values.
	Precision = field.Precision
)

// Precision values.
const (
	Float32 = field.Float32
	Float64 = field.Float64
)

// Register publishes a pipeline under its Name and stream IDs. It panics
// if the name or any ID is already taken — call it from init() so
// collisions fail fast at program start.
func Register(c Codec) { icodec.Register(c) }

// Names lists the registered pipelines, sorted.
func Names() []string { return icodec.Names() }

// ByName finds a registered pipeline by its registry name.
func ByName(name string) (Codec, bool) { return icodec.ByName(name) }

// Lookup finds the pipeline that decodes streams with the given codec
// byte.
func Lookup(id ID) (Codec, bool) { return icodec.Lookup(id) }

// Decompress reconstructs a field from any registered stream, routing by
// the codec byte in its header.
func Decompress(data []byte) (*Field, *Header, error) { return icodec.Decompress(data) }

// ParseHeader decodes a stream header without touching the payload.
func ParseHeader(data []byte) (*Header, error) { return icodec.ParseHeader(data) }

// NewField allocates a zero-filled field, for Decompress implementations
// building their output.
func NewField(name string, prec Precision, dims ...int) *Field {
	return field.New(name, prec, dims...)
}
