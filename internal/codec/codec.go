// Package codec is the registry layer of the compression stack: it owns
// the shared stream container (header format, codec identifiers, unified
// options and statistics), the chunked container's encode and decode
// loops, and a registry through which concrete pipelines — internal/sz
// (prediction-based) and internal/otc (orthogonal transform) — publish
// themselves.
//
// The layering is:
//
//	fixedpsnr          public API: Field in, stream out
//	internal/plan      mode → absolute-bound derivation + calibration
//	internal/codec     this package: registry, container, tiling, chunk
//	                   scheduling, entropy coding, assembly, whole and
//	                   region decode
//	internal/sz, /otc  concrete pipelines (the per-chunk quantize step
//	                   and decompress), self-registered via init()
//
// Decompression routes by registry lookup on the codec byte recorded in
// the stream header, so adding a pipeline is a registration, not a
// refactor: implement Codec, call Register in init(), and every caller of
// Decompress (single streams, archives, the CLI) can read your streams.
package codec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"fixedpsnr/internal/field"
)

// Codec is one compression pipeline behind the registry.
//
// Compress encodes a field under opt and returns the self-describing
// stream plus statistics. Decompress reverses any stream whose header
// codec byte is in IDs. Implementations must be safe for concurrent use.
type Codec interface {
	// Name is the stable registry key ("sz", "otc") used by callers
	// that select a pipeline by name.
	Name() string
	// IDs lists the stream codec bytes this pipeline decodes.
	IDs() []ID
	// MeasuresMSE reports whether Stats.MSE holds the exact
	// reconstruction MSE after Compress (Theorem 1 pipelines). The
	// calibrated fixed-PSNR loop in internal/plan requires it.
	MeasuresMSE() bool
	// Compress encodes f under opt. Implementations must honor ctx
	// cancellation between units of work (slabs, blocks, refinement
	// passes) and return ctx.Err() promptly, and should draw transient
	// buffers from scratch when it is non-nil so session callers reuse
	// allocations across calls. Both ctx and scratch may be nil /
	// context.Background() for one-shot use.
	Compress(ctx context.Context, f *field.Field, opt Options, scratch *Scratch) ([]byte, *Stats, error)
	Decompress(data []byte) (*field.Field, *Header, error)
}

// ChunkCodec is the optional interface of pipelines that operate one
// row-slab chunk at a time. The chunked container is built on it: Encode
// and EncodeRows tile a field and compress its chunks through
// CompressChunk (the streaming encoder as chunks arrive, the steering
// passes only the chunks whose error contribution is stale, or only
// their quantize step when the pipeline is a ChunkQuantizer), and
// DecompressRegionFrom decodes only the chunks a request intersects.
// Streams the container assembles carry the codec's first stream ID,
// IDs()[0], so that ID must be the one DecompressChunk decodes.
//
// Both built-in pipelines implement it. A registered Codec that does not
// is still fully usable through Compress/Decompress; the chunk-granular
// entry points fall back to whole-field operation (region decodes crop a
// full reconstruction) or report ErrNotChunked (streaming encode).
type ChunkCodec interface {
	Codec
	// CompressChunk compresses one chunk: data holds the chunk's values
	// in row-major order and dims are the chunk's dimensions (dims[0] is
	// the chunk's row extent; the rest match the field). opt carries the
	// resolved configuration — in particular ErrorBound and Capacity are
	// final (no AutoCapacity resolution happens at chunk level). The
	// returned payload must be decodable by DecompressChunk.
	CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, scratch *Scratch) ([]byte, ChunkStats, error)
	// DecompressChunk reverses CompressChunk: payload is chunk ci's
	// payload bytes (exactly h.Chunks[ci].Len of them), h the parsed
	// stream header, and dst the chunk's destination values
	// (h.ChunkPoints(ci) of them). Implementations should draw transient
	// decode buffers from scratch when it is non-nil (nil is valid and
	// means one-shot use). It returns ErrNotChunked for stream IDs the
	// pipeline cannot decode chunk-by-chunk.
	DecompressChunk(payload []byte, h *Header, ci int, dst []float64, scratch *Scratch) error
}

// PWRelCodec is the optional interface of pipelines that implement the
// pointwise-relative error mode (|x̃ − x| ≤ rel·|x| for every point).
// The built-in sz pipeline implements it via log-domain compression.
// Dispatch is capability-based — the public API routes ModePWRel to any
// registered codec that implements this interface — so pointwise-relative
// support is a codec property, not a hardwired pipeline name.
type PWRelCodec interface {
	Codec
	// CompressPWRel encodes f under the pointwise relative bound pwRel
	// (in (0, 1)). opt carries the shared configuration; its ErrorBound
	// is ignored (the pipeline derives its own inner bound from pwRel).
	CompressPWRel(ctx context.Context, f *field.Field, pwRel float64, opt Options, scratch *Scratch) ([]byte, *Stats, error)
}

// ErrNotChunked reports that a stream cannot be decoded chunk by chunk
// (its codec is not a ChunkCodec, or the stream ID is one the pipeline
// only decodes whole). Every built-in stream decodes chunk by chunk;
// region decoding falls back to a full decode plus crop when it sees it.
var ErrNotChunked = errors.New("codec: stream does not support chunk-granular access")

var (
	regMu  sync.RWMutex
	byID   = map[ID]Codec{}
	byName = map[string]Codec{}
)

// Register publishes a pipeline. It panics if the name or any stream ID
// is already taken — registration happens in init() and a collision is a
// programming error, not a runtime condition.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	name := c.Name()
	if name == "" {
		panic("codec: Register with empty name")
	}
	if _, dup := byName[name]; dup {
		panic(fmt.Sprintf("codec: duplicate registration of %q", name))
	}
	ids := c.IDs()
	if len(ids) == 0 {
		panic(fmt.Sprintf("codec: %q registers no stream IDs", name))
	}
	for _, id := range ids {
		if prev, dup := byID[id]; dup {
			panic(fmt.Sprintf("codec: stream ID %v claimed by both %q and %q", id, prev.Name(), name))
		}
	}
	byName[name] = c
	for _, id := range ids {
		byID[id] = c
	}
}

// Lookup finds the pipeline that decodes streams with the given codec
// byte.
func Lookup(id ID) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byID[id]
	return c, ok
}

// ByName finds a registered pipeline by its registry name.
func ByName(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	return c, ok
}

// Names lists the registered pipelines, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
