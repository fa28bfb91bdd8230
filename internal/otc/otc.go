// Package otc implements an orthogonal-transform compressor: a blockwise
// orthonormal DCT-II front end (in the spirit of ZFP's custom transform
// and SSEM's wavelets) followed by the same uniform quantization + Huffman
// + DEFLATE back end as the SZ pipeline.
//
// Its purpose in this module is twofold:
//
//   - it is the second compressor family the paper covers — Theorem 2
//     states that for orthonormal transforms the quantization-stage
//     distortion equals the reconstruction distortion, so the same Eq. 6
//     drives a fixed-PSNR mode here, with the quantization bin width
//     δ = vr·√12·10^(−PSNR/20) applied to transform coefficients; and
//   - it serves as an independent check that the fixed-PSNR analysis is
//     not an artifact of the Lorenzo predictor.
//
// Unlike the SZ pipeline, quantizing in the transform domain does not
// bound the pointwise error — only the l2 distortion is controlled, which
// is exactly the fixed-PSNR use case.
//
// Blocks are cut to the field boundary (a partial block of size r uses an
// orthonormal DCT of size r), so the whole transform stays exactly
// orthonormal without padding.
package otc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/parallel"
	"fixedpsnr/internal/quantizer"
	"fixedpsnr/internal/transform"
)

// DefaultBlockSize is the default transform block edge length.
const DefaultBlockSize = 8

// otcCodec publishes this pipeline in the codec registry. It owns the
// orthogonal-transform stream ID; constant streams it emits carry
// codec.IDConstant, which the container decodes itself.
type otcCodec struct{}

func (otcCodec) Name() string { return "otc" }

func (otcCodec) IDs() []codec.ID { return []codec.ID{codec.IDOTC} }

// MeasuresMSE is false: quantization happens in the transform domain and
// the pipeline does not track the data-domain distortion exactly.
func (otcCodec) MeasuresMSE() bool { return false }

func init() { codec.Register(otcCodec{}) }

// Transform selects the orthonormal block transform (shared type; see
// codec.Transform). Blocks whose edge is not a power of two fall back to
// the DCT of the exact size under TransformHaar, so the whole transform
// stays orthonormal without padding.
type Transform = codec.Transform

// Transforms.
const (
	// TransformDCT is the orthonormal DCT-II (ZFP-flavored).
	TransformDCT = codec.TransformDCT
	// TransformHaar is the full multi-level orthonormal Haar DWT
	// (SSEM-flavored).
	TransformHaar = codec.TransformHaar
)

// Options is the unified codec configuration (see codec.Options). The
// transform pipeline reads ErrorBound (half the coefficient bin width:
// δ = 2·ErrorBound), Transform, BlockSize, Capacity and the header
// annotations, and tiles by ChunkRows, ChunkPoints or Workers (see
// ChunkSpans); AutoCapacity is ignored.
type Options = codec.Options

// blockEdge resolves the block-size default.
func blockEdge(o Options) int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

// checkBlockSize rejects block edges above codec.MaxBlockSize. Every
// encode entry point runs it: codec-level callers skip the public
// options validation.
func checkBlockSize(o Options) error {
	if o.BlockSize > codec.MaxBlockSize {
		return fmt.Errorf("otc: block size %d exceeds the maximum %d", o.BlockSize, codec.MaxBlockSize)
	}
	return nil
}

// dctCache shares DCT bases across blocks and calls, one per edge.
var dctCache [codec.MaxBlockSize + 1]atomic.Pointer[transform.DCT]

func dctFor(n int) (*transform.DCT, error) {
	if n < 1 || n > codec.MaxBlockSize {
		return nil, fmt.Errorf("otc: block edge %d outside [1, %d]", n, codec.MaxBlockSize)
	}
	if d := dctCache[n].Load(); d != nil {
		return d, nil
	}
	d, err := transform.NewDCT(n)
	if err != nil {
		return nil, err
	}
	dctCache[n].CompareAndSwap(nil, d)
	return dctCache[n].Load(), nil
}

// blockRange describes one block along each axis: offsets and sizes.
type blockRange struct {
	off  [3]int
	size [3]int
	n    int // total points
	pos  int // offset of the block's first code in the chunk's code stream
}

// blockGrid enumerates the blocks covering dims with edge length b,
// cutting partial blocks at the boundary, in row-major grid order (axis
// 0 slowest) — the order their codes follow in a chunk payload. Axes
// past the rank have length 1.
type blockGrid struct {
	dims [3]int
	nb   [3]int // blocks along each axis
	b    int
}

func newBlockGrid(dims []int, b int) blockGrid {
	g := blockGrid{dims: [3]int{1, 1, 1}, nb: [3]int{1, 1, 1}, b: b}
	for a, d := range dims {
		g.dims[a] = d
		g.nb[a] = (d + b - 1) / b
	}
	return g
}

// len returns the number of blocks.
func (g blockGrid) len() int { return g.nb[0] * g.nb[1] * g.nb[2] }

// maxPoints returns the point count of the largest block, the first.
func (g blockGrid) maxPoints() int {
	return min(g.b, g.dims[0]) * min(g.b, g.dims[1]) * min(g.b, g.dims[2])
}

// block returns block bi of the grid. Its codes start after those of
// every earlier block: all off[0] planes above it, then off[1] rows of
// its own slab, then off[2] points of its own rows.
func (g blockGrid) block(bi int) blockRange {
	idx := [3]int{bi / (g.nb[1] * g.nb[2]), bi / g.nb[2] % g.nb[1], bi % g.nb[2]}
	var br blockRange
	for a, i := range idx {
		br.off[a] = i * g.b
		br.size[a] = min(g.b, g.dims[a]-br.off[a])
	}
	br.n = br.size[0] * br.size[1] * br.size[2]
	br.pos = br.off[0]*g.dims[1]*g.dims[2] + br.size[0]*br.off[1]*g.dims[2] + br.size[0]*br.size[1]*br.off[2]
	return br
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// applyBlock applies the separable orthonormal block transform (or, with
// inverse, its inverse) to the row-major block in cur, whose per-axis
// sizes are sizes, axis 0 first; tmp is scratch of the same length. Each
// axis runs through a transform axis kernel over the block's
// [outer][L][stride] view. It returns the buffer holding the result,
// which is cur or tmp.
func applyBlock(cur, tmp []float64, sizes []int, tr Transform, inverse bool) ([]float64, error) {
	outer, stride := 1, len(cur)
	for _, L := range sizes {
		stride /= L
		switch {
		case L == 1:
		case tr == TransformHaar && isPow2(L):
			// Haar requires power-of-two lengths; other lengths keep the
			// exact-size DCT so the block transform remains orthonormal.
			haar := transform.HaarForwardAxis
			if inverse {
				haar = transform.HaarInverseAxis
			}
			if err := haar(cur, tmp, outer, L, stride); err != nil {
				return nil, err
			}
		default:
			d, err := dctFor(L)
			if err != nil {
				return nil, err
			}
			if inverse {
				d.InverseAxis(tmp, cur, outer, stride)
			} else {
				d.ForwardAxis(tmp, cur, outer, stride)
			}
			cur, tmp = tmp, cur
		}
		outer *= L
	}
	return cur, nil
}

// ChunkSpans implements codec.ChunkPlanner, so every container
// assembler tiles identically for the same options: explicit ChunkRows
// verbatim; otherwise chunks ChunkPoints tall or, when that is unset
// too, ⌈dims[0]/Workers⌉ rows tall (Workers ≤ 0: GOMAXPROCS), the
// container's one chunk per worker. Either height is rounded up to a
// multiple of the block edge so chunk boundaries do not shear transform
// blocks.
func (otcCodec) ChunkSpans(dims []int, opt codec.Options) [][2]int {
	if opt.ChunkRows > 0 {
		return parallel.Chunks(dims[0], opt.ChunkRows)
	}
	var rows int
	if opt.ChunkPoints > 0 {
		rows = codec.RowsForChunkPoints(dims, opt.ChunkPoints)
	} else {
		workers := opt.Workers
		if workers <= 0 {
			workers = parallel.DefaultWorkers()
		}
		rows = (dims[0] + workers - 1) / workers
	}
	b := blockEdge(opt)
	if rem := rows % b; rem != 0 && rows+b-rem <= dims[0] {
		rows += b - rem
	}
	return parallel.Chunks(dims[0], rows)
}

// CompressChunk implements codec.Codec: QuantizeChunk, then the
// container's Huffman and DEFLATE entropy step.
func (c otcCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	return codec.CompressQuantized(ctx, c, data, dims, prec, opt, sc)
}

// QuantizeChunk implements codec.ChunkQuantizer: StageChunk, then
// QuantizeStaged, with the stage output back in sc before it returns.
func (c otcCodec) QuantizeChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) (codec.Quantized, error) {
	st, err := c.StageChunk(ctx, data, dims, prec, opt, sc)
	if err != nil {
		return codec.Quantized{}, err
	}
	defer sc.PutFloats(st.Values)
	return c.QuantizeStaged(st, opt, sc)
}

// StageChunk implements codec.StagedQuantizer: the part of QuantizeChunk
// that does not depend on the bound. It gathers each block of one row
// slab, forward-transforms it and writes its coefficients where the
// block's codes go, so Values is in code order. Blocks are cut to the
// chunk boundary, so every chunk is independently decodable. The blocks
// run in grid order through one buffer from sc; the container's chunk
// loop is the only parallelism.
func (otcCodec) StageChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) (codec.Staged, error) {
	if err := ctx.Err(); err != nil {
		return codec.Staged{}, err
	}
	if err := checkBlockSize(opt); err != nil {
		return codec.Staged{}, err
	}
	g := newBlockGrid(dims, blockEdge(opt))
	// Room for the largest block twice over: the DCT axis kernel writes
	// out of place. It is taken before the coefficients and returned
	// first, so the pool hands both back in the same order next chunk.
	m := g.maxPoints()
	buf := sc.Floats(2 * m)
	defer sc.PutFloats(buf)
	coefs := sc.Floats(len(data))
	var zero [3]int
	rank := len(dims)
	for bi := range g.len() {
		br := g.block(bi)
		cur, tmp := buf[:br.n], buf[m:m+br.n]
		field.CopyRegion(cur, br.size[:rank], zero[:rank], data, dims, br.off[:rank], br.size[:rank])
		coef, err := applyBlock(cur, tmp, br.size[:rank], opt.Transform, false)
		if err != nil {
			sc.PutFloats(coefs)
			return codec.Staged{}, err
		}
		copy(coefs[br.pos:br.pos+br.n], coef)
	}
	st := codec.Staged{Values: coefs}
	st.Min, st.Max = codec.ValueBounds(data)
	return st, nil
}

// QuantizeStaged implements codec.StagedQuantizer: the quantize loop of
// QuantizeChunk over a chunk's coefficients at opt.ErrorBound. A
// coefficient outside the quantizer's capacity is stored as a literal
// behind a zero code.
func (otcCodec) QuantizeStaged(st codec.Staged, opt Options, sc *codec.Scratch) (codec.Quantized, error) {
	if opt.Capacity == 0 {
		opt.Capacity = quantizer.DefaultCapacity
	}
	// quantizer.New takes the half-width (error bound) convention; the
	// coefficient bin width is δ = 2·ErrorBound.
	q, err := quantizer.New(opt.ErrorBound, opt.Capacity)
	if err != nil {
		return codec.Quantized{}, fmt.Errorf("otc: %w", err)
	}
	codes := sc.Int32s(len(st.Values))
	var literals []float64
	for i, c := range st.Values {
		code, ok := q.Quantize(c)
		if !ok {
			literals = append(literals, c)
			codes[i] = 0
			continue
		}
		codes[i] = int32(code)
	}

	// The payload prefix records the transform and block size; the
	// coefficient literals are stored as float64 whatever the field's
	// precision.
	prefix := binary.AppendUvarint(append(make([]byte, 0, 1+binary.MaxVarintLen64), byte(opt.Transform)), uint64(blockEdge(opt)))
	out := codec.Quantized{Prefix: prefix, Codes: codes, MaxSym: opt.Capacity - 1, Literals: literals, Prec: field.Float64}
	out.Stats.Unpredictable = len(literals)
	out.Stats.MSE = math.NaN() // quantization happens in the transform domain
	out.Stats.Min, out.Stats.Max = st.Min, st.Max
	return out, nil
}

// DecompressChunk implements codec.Codec for OTC streams: it
// reverses CompressChunk for chunk ci, reconstructing into dst (the
// chunk's points). The blocks run in grid order through one buffer from
// sc (nil = fresh allocations), each consuming its literals as its zero
// codes claim them.
func (otcCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	if h.Codec != codec.IDOTC {
		return fmt.Errorf("otc: cannot decode chunks of stream ID %v", h.Codec)
	}
	if len(dst) != h.ChunkPoints(ci) {
		return fmt.Errorf("otc: dst has %d points, want %d", len(dst), h.ChunkPoints(ci))
	}
	var tr Transform
	var blockSize int
	codes, literals, err := sc.ParsePayload(payload, field.Float64, func(b []byte) ([]byte, error) {
		var err error
		b, tr, blockSize, err = parsePrefix(b)
		return b, err
	})
	if err != nil {
		return fmt.Errorf("otc: %w", err)
	}
	defer sc.PutInt32s(codes)
	defer sc.PutFloats(literals)
	dims := h.ChunkDims(ci)
	if len(codes) != len(dst) {
		return fmt.Errorf("otc: %d codes for %d points", len(codes), len(dst))
	}
	q, err := quantizer.New(h.ChunkBound(ci), h.Capacity)
	if err != nil {
		return err
	}
	g := newBlockGrid(dims, blockSize)
	m := g.maxPoints()
	buf := sc.Floats(2 * m)
	defer sc.PutFloats(buf)
	var zero [3]int
	rank := len(dims)
	li := 0
	for bi := range g.len() {
		br := g.block(bi)
		// Range over the block's code window with cur pinned to the same
		// length so the compiler drops both bounds checks in the hot loop.
		cs := codes[br.pos : br.pos+br.n]
		cur, tmp := buf[:len(cs)], buf[m:m+len(cs)]
		for i, c := range cs {
			if c == 0 {
				if li == len(literals) {
					return fmt.Errorf("otc: more zero codes than the chunk's %d literals", len(literals))
				}
				cur[i] = literals[li]
				li++
				continue
			}
			cur[i] = q.Reconstruct(int(c))
		}
		vals, err := applyBlock(cur, tmp, br.size[:rank], tr, true)
		if err != nil {
			return err
		}
		field.CopyRegion(dst, dims, br.off[:rank], vals, br.size[:rank], zero[:rank], br.size[:rank])
	}
	if li != len(literals) {
		return fmt.Errorf("otc: literal count mismatch (%d vs %d)", li, len(literals))
	}
	return nil
}

// parsePrefix reads the transform byte and block size that lead every
// otc chunk payload, ahead of the shared codec.Scratch.ParsePayload
// layout, and returns the bytes after them.
func parsePrefix(b []byte) (rest []byte, tr Transform, blockSize int, err error) {
	if len(b) < 1 {
		return nil, 0, 0, fmt.Errorf("otc: empty payload")
	}
	tr = Transform(b[0])
	if tr != TransformDCT && tr != TransformHaar {
		return nil, 0, 0, fmt.Errorf("otc: unknown transform %d", b[0])
	}
	bs, k := binary.Uvarint(b[1:])
	if k <= 0 || bs == 0 || bs > codec.MaxBlockSize {
		return nil, 0, 0, fmt.Errorf("otc: bad block size")
	}
	return b[1+k:], tr, int(bs), nil
}
