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
// module. A codec is a per-chunk pair: the container tiles every field
// into row-slab chunks, hands each chunk's values to CompressChunk, and
// hands each chunk's payload back to DecompressChunk:
//
//	type myCodec struct{}
//
//	func (myCodec) Name() string      { return "my" }
//	func (myCodec) IDs() []codec.ID   { return []codec.ID{42} }
//	func (myCodec) MeasuresMSE() bool { return false }
//	func (myCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec codec.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) { ... }
//	func (myCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error { ... }
//
//	func init() { codec.Register(myCodec{}) }
//
// The container writes the header and chunk table, stamped with the
// codec's first stream ID, IDs()[0]; pick a stream ID that no registered
// codec claims (Register panics on collisions at init time, so clashes
// cannot ship). DecompressChunk receives payload bytes from the stream,
// so it must reject a payload it cannot decode into dst.
package codec

import (
	icodec "fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Aliases of the shared container and registry types (see the internal
// codec package for full documentation).
type (
	// Codec is one compression pipeline behind the registry: a
	// per-chunk compress and decompress pair. Streams the chunked
	// container assembles carry the codec's first stream ID, IDs()[0].
	Codec = icodec.Codec
	// ChunkInfo is one entry of a chunked stream's per-chunk index.
	ChunkInfo = icodec.ChunkInfo
	// ChunkStats is the per-chunk outcome a Codec reports.
	ChunkStats = icodec.ChunkStats
	// ID is the stream codec byte recorded in every header.
	ID = icodec.ID
	// Header is the self-describing stream header.
	Header = icodec.Header
	// Options is the unified per-codec configuration.
	Options = icodec.Options
	// Scratch holds pooled scratch buffers threaded through session
	// compressions; a nil *Scratch is always valid.
	Scratch = icodec.Scratch
	// Mode is the error-control mode byte annotated in headers.
	Mode = icodec.Mode
	// Transform selects the orthonormal block transform.
	Transform = icodec.Transform
	// Field is the N-dimensional data container Decompress returns
	// (same type as fixedpsnr.Field).
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
