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
// codec.IDConstant and route to the sz pipeline's decoder.
type otcCodec struct{}

func (otcCodec) Name() string { return "otc" }

func (otcCodec) IDs() []codec.ID { return []codec.ID{codec.IDOTC} }

// MeasuresMSE is false: quantization happens in the transform domain and
// the pipeline does not track the data-domain distortion exactly.
func (otcCodec) MeasuresMSE() bool { return false }

func (otcCodec) Compress(ctx context.Context, f *field.Field, opt codec.Options, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	return CompressCtx(ctx, f, opt, sc)
}

func (otcCodec) Decompress(data []byte) (*field.Field, *codec.Header, error) {
	return Decompress(data)
}

// DecompressScratch implements codec.ScratchDecompressor.
func (otcCodec) DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *codec.Header, error) {
	return DecompressScratch(data, sc)
}

// CompressChunk implements codec.ChunkCodec: one row slab through the
// blockwise transform pipeline. Blocks are cut to the chunk boundary, so
// every chunk is independently decodable.
func (otcCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	copt := opt
	if copt.Capacity == 0 {
		copt.Capacity = quantizer.DefaultCapacity
	}
	if !(copt.ErrorBound > 0) || math.IsInf(copt.ErrorBound, 0) || math.IsNaN(copt.ErrorBound) {
		return nil, codec.ChunkStats{}, fmt.Errorf("otc: error bound (half bin width) must be positive and finite, got %g", copt.ErrorBound)
	}
	if err := checkBlockSize(copt); err != nil {
		return nil, codec.ChunkStats{}, err
	}
	q, err := quantizer.New(copt.ErrorBound, copt.Capacity)
	if err != nil {
		return nil, codec.ChunkStats{}, err
	}
	return compressChunk(ctx, data, dims, copt, q, sc)
}

// DecompressChunk implements codec.ChunkCodec for OTC streams.
func (otcCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	if h.Codec != codec.IDOTC {
		return codec.ErrNotChunked
	}
	if len(dst) != h.ChunkPoints(ci) {
		return fmt.Errorf("otc: chunk %d dst has %d points, want %d", ci, len(dst), h.ChunkPoints(ci))
	}
	return decompressChunk(payload, h, ci, dst, sc)
}

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
// δ = 2·ErrorBound), Transform, BlockSize, Capacity, Workers, and the
// header annotations; AutoCapacity and ChunkRows are ignored.
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

// Stats is the unified compression outcome report (see codec.Stats).
// This pipeline does not measure its exact MSE, so Stats.MSE is NaN.
type Stats = codec.Stats

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

// blockBufs hands each worker slot of a parallel block loop one buffer,
// drawn from the slot's scratch shard on first use: room for the grid's
// largest block twice over, since the DCT axis kernel writes out of
// place.
type blockBufs struct {
	sc   *codec.Scratch
	n    int // points in the largest block
	bufs [][]float64
}

// newBlockBufs sizes the slot table for parallel.ForEachWorkerCtx over
// g's blocks with the given worker bound.
func newBlockBufs(sc *codec.Scratch, g blockGrid, workers int) *blockBufs {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	return &blockBufs{sc: sc, n: g.maxPoints(), bufs: make([][]float64, min(workers, g.len()))}
}

// get returns worker slot w's two n-point halves.
func (b *blockBufs) get(w, n int) (cur, tmp []float64) {
	buf := b.bufs[w]
	if buf == nil {
		buf = b.sc.Shard(w).Floats(2 * b.n)
		b.bufs[w] = buf
	}
	return buf[:n], buf[b.n : b.n+n]
}

// release returns every slot's buffer to its shard.
func (b *blockBufs) release() {
	for w, buf := range b.bufs {
		b.sc.Shard(w).PutFloats(buf)
	}
}

// gatherBlock copies a block into buf (row-major within the block).
func gatherBlock(data []float64, dims []int, br blockRange, buf []float64) {
	switch len(dims) {
	case 1:
		copy(buf, data[br.off[0]:br.off[0]+br.size[0]])
	case 2:
		cols := dims[1]
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			src := (br.off[0]+i)*cols + br.off[1]
			copy(buf[idx:idx+br.size[1]], data[src:src+br.size[1]])
			idx += br.size[1]
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		plane := d1 * d2
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			for j := 0; j < br.size[1]; j++ {
				src := (br.off[0]+i)*plane + (br.off[1]+j)*d2 + br.off[2]
				copy(buf[idx:idx+br.size[2]], data[src:src+br.size[2]])
				idx += br.size[2]
			}
		}
	}
}

// scatterBlock writes a block buffer back into the field array.
func scatterBlock(data []float64, dims []int, br blockRange, buf []float64) {
	switch len(dims) {
	case 1:
		copy(data[br.off[0]:br.off[0]+br.size[0]], buf)
	case 2:
		cols := dims[1]
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			dst := (br.off[0]+i)*cols + br.off[1]
			copy(data[dst:dst+br.size[1]], buf[idx:idx+br.size[1]])
			idx += br.size[1]
		}
	case 3:
		d1, d2 := dims[1], dims[2]
		plane := d1 * d2
		idx := 0
		for i := 0; i < br.size[0]; i++ {
			for j := 0; j < br.size[1]; j++ {
				dst := (br.off[0]+i)*plane + (br.off[1]+j)*d2 + br.off[2]
				copy(data[dst:dst+br.size[2]], buf[idx:idx+br.size[2]])
				idx += br.size[2]
			}
		}
	}
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

// Compress compresses the field by blockwise orthonormal DCT and uniform
// coefficient quantization with bin width opt.Delta.
func Compress(f *field.Field, opt Options) ([]byte, *Stats, error) {
	return CompressCtx(context.Background(), f, opt, nil)
}

// CompressCtx is Compress with cancellation and buffer reuse: workers
// check ctx between transform blocks (a cancelled context aborts within
// one block of work per worker and surfaces ctx.Err()), and the block
// gather buffers plus the entropy-stage staging buffers and DEFLATE
// encoder come from sc when it is non-nil.
//
// When Options.ChunkPoints or ChunkRows is set the field is tiled into
// independently decodable chunks along the slowest dimension (blocks are
// cut at chunk boundaries, preserving orthonormality), enabling
// random-access region decodes of transform streams; the default keeps
// one chunk covering the whole field, which matches the historical block
// layout exactly.
func CompressCtx(ctx context.Context, f *field.Field, opt Options, sc *codec.Scratch) ([]byte, *Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if err := checkBlockSize(opt); err != nil {
		return nil, nil, err
	}
	// Trust the value range the public layer already measured (see the
	// matching comment in sz.CompressCtx); rescan only when absent.
	vr := opt.ValueRange
	if vr == 0 {
		_, _, vr = f.ValueRange()
		opt.ValueRange = vr
	}
	if vr == 0 {
		return compressConstant(f, opt)
	}
	if !(opt.ErrorBound > 0) || math.IsInf(opt.ErrorBound, 0) || math.IsNaN(opt.ErrorBound) {
		return nil, nil, fmt.Errorf("otc: error bound (half bin width) must be positive and finite, got %g", opt.ErrorBound)
	}
	capacity := opt.Capacity
	if capacity == 0 {
		capacity = quantizer.DefaultCapacity
	}
	copt := opt
	copt.Capacity = capacity
	// quantizer.New takes the half-width (error bound) convention;
	// the coefficient bin width is δ = 2·ErrorBound.
	q, err := quantizer.New(opt.ErrorBound, capacity)
	if err != nil {
		return nil, nil, err
	}

	spans := chunkSpans(f.Dims, opt)
	inner := 1
	for _, d := range f.Dims[1:] {
		inner *= d
	}
	payloads := make([][]byte, len(spans))
	chunks := make([]codec.ChunkInfo, len(spans))
	totalBlocks := 0
	// Chunks run serially; the block loop inside each chunk is parallel,
	// so the default single-chunk layout keeps its full concurrency.
	for c, span := range spans {
		lo, hi := span[0], span[1]
		sub := f.Data[lo*inner : hi*inner]
		subDims := append([]int{hi - lo}, f.Dims[1:]...)
		payload, cst, err := compressChunk(ctx, sub, subDims, copt, q, sc)
		if err != nil {
			return nil, nil, err
		}
		payloads[c] = payload
		chunks[c] = codec.ChunkInfo{
			Rows:          hi - lo,
			Unpredictable: cst.Unpredictable,
			MSE:           cst.MSE,
			Min:           cst.Min,
			Max:           cst.Max,
		}
		totalBlocks += newBlockGrid(subDims, blockEdge(opt)).len()
	}

	h := &codec.Header{
		Codec:      codec.IDOTC,
		Precision:  f.Precision,
		Mode:       opt.Mode,
		Name:       f.Name,
		Dims:       f.Dims,
		EbAbs:      opt.ErrorBound,
		TargetPSNR: opt.TargetPSNR,
		ValueRange: opt.ValueRange,
		Capacity:   capacity,
		Chunks:     chunks,
	}
	if h.TargetPSNR == 0 && opt.Mode != codec.ModePSNR {
		h.TargetPSNR = math.NaN()
	}
	out, err := codec.AssembleStream(h, payloads)
	if err != nil {
		return nil, nil, err
	}
	st := codec.StatsFromChunks(h, len(out), f.SizeBytes())
	st.ValueRange = vr
	st.Blocks = totalBlocks
	st.MSE = math.NaN() // not measured by this pipeline
	return out, st, nil
}

// ChunkSpans implements codec.ChunkPlanner, so every container
// assembler (CompressCtx here, the public streaming encoder) tiles
// identically for the same options.
func (otcCodec) ChunkSpans(dims []int, opt codec.Options) [][2]int {
	return chunkSpans(dims, opt)
}

// chunkSpans tiles dims[0] for this pipeline: a single whole-field chunk
// by default, explicit ChunkRows verbatim, and ChunkPoints rounded up to
// a multiple of the block edge so chunk boundaries do not shear
// transform blocks.
func chunkSpans(dims []int, opt Options) [][2]int {
	if opt.ChunkRows > 0 {
		return parallel.Chunks(dims[0], opt.ChunkRows)
	}
	if opt.ChunkPoints <= 0 {
		return [][2]int{{0, dims[0]}}
	}
	rows := codec.RowsForChunkPoints(dims, opt.ChunkPoints)
	b := blockEdge(opt)
	if rem := rows % b; rem != 0 && rows+b-rem <= dims[0] {
		rows += b - rem
	}
	return parallel.Chunks(dims[0], rows)
}

// compressChunk transforms, quantizes, and entropy-codes one row slab.
// Blocks within the chunk run in parallel under opt.Workers; each writes
// its codes into one chunk-wide slice at its own offset.
func compressChunk(ctx context.Context, data []float64, dims []int, opt Options, q *quantizer.Quantizer, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	var cst codec.ChunkStats
	g := newBlockGrid(dims, blockEdge(opt))
	codes := sc.Int32s(len(data))
	defer sc.PutInt32s(codes)
	lits := make([][]float64, g.len()) // per-block literals, nil for most
	bufs := newBlockBufs(sc, g, opt.Workers)
	defer bufs.release()
	err := parallel.ForEachWorkerCtx(ctx, g.len(), opt.Workers, func(w, bi int) error {
		br := g.block(bi)
		cur, tmp := bufs.get(w, br.n)
		gatherBlock(data, dims, br, cur)
		coef, err := applyBlock(cur, tmp, br.size[:len(dims)], opt.Transform, false)
		if err != nil {
			return err
		}
		cs := codes[br.pos : br.pos+br.n]
		for i, c := range coef {
			code, ok := q.Quantize(c)
			if !ok {
				lits[bi] = append(lits[bi], c)
				cs[i] = 0
				continue
			}
			cs[i] = int32(code)
		}
		return nil
	})
	if err != nil {
		return nil, cst, err
	}

	var literals []float64
	for _, l := range lits {
		literals = append(literals, l...)
	}
	// The payload prefix records the transform and block size; the
	// coefficient literals are stored as float64 whatever the field's
	// precision.
	var pre [1 + binary.MaxVarintLen64]byte
	prefix := binary.AppendUvarint(append(pre[:0], byte(opt.Transform)), uint64(blockEdge(opt)))
	payload, err := sc.AppendPayload(nil, prefix, codes, opt.Capacity-1, literals, field.Float64)
	if err != nil {
		return nil, cst, err
	}
	cst.Unpredictable = len(literals)
	cst.MSE = math.NaN() // quantization happens in the transform domain
	cst.Min, cst.Max = codec.ValueBounds(data)
	return payload, cst, nil
}

func compressConstant(f *field.Field, opt Options) ([]byte, *Stats, error) {
	h := &codec.Header{
		Codec:      codec.IDConstant,
		Precision:  f.Precision,
		Mode:       opt.Mode,
		Name:       f.Name,
		Dims:       f.Dims,
		ConstValue: f.Data[0],
	}
	out := h.Marshal()
	st := &Stats{
		OriginalBytes:   f.SizeBytes(),
		CompressedBytes: len(out),
		Ratio:           float64(f.SizeBytes()) / float64(len(out)),
		BitRate:         8 * float64(len(out)) / float64(f.Len()),
		NPoints:         f.Len(),
		Blocks:          1,
	}
	return out, st, nil
}

// Decompress reconstructs a field from an OTC stream. It accepts constant
// streams as well so callers can route by magic alone.
func Decompress(data []byte) (*field.Field, *codec.Header, error) {
	return DecompressScratch(data, nil)
}

// DecompressScratch is Decompress drawing transient decode buffers — the
// inflate window, code and literal slices, Huffman decode tables, and
// per-worker block buffers — from sc, so session callers reuse
// allocations across streams. A nil sc allocates fresh; the
// reconstruction is identical either way.
func DecompressScratch(data []byte, sc *codec.Scratch) (*field.Field, *codec.Header, error) {
	h, err := codec.ParseHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.Codec == codec.IDConstant {
		out := field.New(h.Name, h.Precision, h.Dims...)
		for i := range out.Data {
			out.Data[i] = h.ConstValue
		}
		return out, h, nil
	}
	if h.Codec != codec.IDOTC {
		return nil, nil, fmt.Errorf("otc: stream has codec %v, not %v", h.Codec, codec.IDOTC)
	}
	out := field.New(h.Name, h.Precision, h.Dims...)
	inner := h.InnerPoints()
	for ci := range h.Chunks {
		payload, err := codec.ChunkPayload(data, h, ci)
		if err != nil {
			return nil, nil, err
		}
		lo := h.Chunks[ci].RowStart
		hi := lo + h.Chunks[ci].Rows
		if err := decompressChunk(payload, h, ci, out.Data[lo*inner:hi*inner], sc); err != nil {
			return nil, nil, err
		}
	}
	return out, h, nil
}

// decompressChunk reverses compressChunk for chunk ci, reconstructing
// into dst (the chunk's points). Blocks within the chunk run in
// parallel. Transient buffers come from sc (nil = fresh allocations).
func decompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	var tr Transform
	var blockSize int
	codes, literals, err := sc.ParsePayload(payload, field.Float64, func(b []byte) ([]byte, error) {
		var err error
		b, tr, blockSize, err = parsePrefix(b)
		return b, err
	})
	if err != nil {
		return fmt.Errorf("otc: chunk %d: %w", ci, err)
	}
	defer sc.PutInt32s(codes)
	defer sc.PutFloats(literals)
	dims := h.ChunkDims(ci)
	if len(codes) != len(dst) {
		return fmt.Errorf("otc: chunk %d has %d codes for %d points", ci, len(codes), len(dst))
	}
	q, err := quantizer.New(h.ChunkBound(ci), h.Capacity)
	if err != nil {
		return err
	}
	g := newBlockGrid(dims, blockSize)

	// Each block's literals start after those of every earlier block,
	// which depends on the codes before it, so this pass is serial; the
	// inverse transforms then run in parallel.
	litOff := make([]int, g.len())
	lit := 0
	for bi := range litOff {
		litOff[bi] = lit
		br := g.block(bi)
		for _, c := range codes[br.pos : br.pos+br.n] {
			if c == 0 {
				lit++
			}
		}
	}
	if lit != len(literals) {
		return fmt.Errorf("otc: literal count mismatch (%d vs %d)", lit, len(literals))
	}

	bufs := newBlockBufs(sc, g, 0)
	defer bufs.release()
	return parallel.ForEachWorkerCtx(context.Background(), g.len(), 0, func(w, bi int) error {
		br := g.block(bi)
		cur, tmp := bufs.get(w, br.n)
		li := litOff[bi]
		// Range over the block's code window with cur pinned to the same
		// length so the compiler drops both bounds checks in the hot loop.
		cs := codes[br.pos : br.pos+br.n]
		cur = cur[:len(cs)]
		for i, c := range cs {
			if c == 0 {
				cur[i] = literals[li]
				li++
				continue
			}
			cur[i] = q.Reconstruct(int(c))
		}
		vals, err := applyBlock(cur, tmp, br.size[:len(dims)], tr, true)
		if err != nil {
			return err
		}
		scatterBlock(dst, dims, br, vals)
		return nil
	})
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
