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
// refactor: implement Codec and call Register in init(); from then on
// every encode path can write your streams and every caller of
// Decompress (single streams, archives, the CLI) can read them.
package codec

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fixedpsnr/internal/field"
)

// Codec is one compression pipeline behind the registry: a per-chunk
// compress and decompress pair inside the chunked container. Encode and
// EncodeRows tile a field into row-slab chunks and compress them through
// CompressChunk (the streaming encoder as chunks arrive, the steering
// passes only the chunks whose error contribution is stale, or only
// their quantize step when the pipeline is a ChunkQuantizer, and only its
// loop over the held stage output when it is a StagedQuantizer), and
// DecompressRegionFrom decodes only the chunks a request intersects.
// Streams the container assembles carry the codec's first stream ID,
// IDs()[0], so that ID must be the one DecompressChunk decodes.
// Implementations must be safe for concurrent use.
type Codec interface {
	// Name is the stable registry key ("sz", "otc") used by callers
	// that select a pipeline by name.
	Name() string
	// IDs lists the stream codec bytes this pipeline decodes.
	IDs() []ID
	// MeasuresMSE reports whether ChunkStats.MSE holds the exact
	// reconstruction MSE of the chunk (Theorem 1 pipelines). The
	// calibrated fixed-PSNR loop in internal/plan requires it.
	MeasuresMSE() bool
	// CompressChunk compresses one chunk: data holds the chunk's values
	// in row-major order and dims are the chunk's dimensions (dims[0] is
	// the chunk's row extent; the rest match the field). opt carries the
	// resolved configuration — in particular ErrorBound and Capacity are
	// final (no AutoCapacity resolution happens at chunk level). The
	// returned payload must be decodable by DecompressChunk.
	// Implementations must honor ctx cancellation and should draw
	// transient buffers from scratch when it is non-nil (nil is valid and
	// means one-shot use).
	CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, scratch *Scratch) ([]byte, ChunkStats, error)
	// DecompressChunk reverses CompressChunk: payload is chunk ci's
	// payload bytes (exactly h.Chunks[ci].Len of them), h the parsed
	// stream header, and dst the chunk's destination values
	// (h.ChunkPoints(ci) of them). Implementations should draw transient
	// decode buffers from scratch when it is non-nil (nil is valid and
	// means one-shot use). The payload comes from the stream, so it must
	// be checked, never trusted. Its errors need not name the chunk: the
	// container's chunk loop does.
	DecompressChunk(payload []byte, h *Header, ci int, dst []float64, scratch *Scratch) error
}

// ChunkCodec is Codec, kept as an alias for callers written when chunk
// access was optional: every codec is a chunk codec.
type ChunkCodec = Codec

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
