// Package sz implements an SZ-style error-bounded lossy compressor for 1-,
// 2-, and 3-dimensional floating-point fields, modeled on SZ 1.4 (Tao et
// al., IPDPS 2017; Di & Cappello, IPDPS 2016):
//
//  1. predict every point with the Lorenzo predictor from its preceding,
//     already-reconstructed neighbors;
//  2. quantize the prediction error with error-controlled uniform
//     quantization (bin width δ = 2·ebabs, midpoint reconstruction);
//  3. entropy-code the quantization codes with a custom canonical Huffman
//     coder; and
//  4. squeeze the result with DEFLATE (the algorithm inside GZIP).
//
// Points whose prediction error falls outside the quantization interval
// range are stored losslessly ("unpredictable" literals), so the
// pointwise absolute error is guaranteed ≤ ebabs for every point.
//
// The compressor optionally splits the field into independent slabs along
// the slowest dimension and compresses them concurrently; each slab
// restarts the predictor, so the error bound is unaffected.
//
// Because prediction during decompression sees exactly the reconstructed
// values the compressor saw, the pipeline is l2-norm-preserving in the
// sense of the paper's Eq. 1: X − X̃ equals the quantization-stage error
// on the prediction residuals. This is what makes the closed-form PSNR
// control of internal/core exact.
package sz

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/predictor"
	"fixedpsnr/internal/quantizer"
)

// Options is the unified codec configuration (see codec.Options). The SZ
// pipeline reads ErrorBound, Capacity, AutoCapacity, Workers, ChunkRows,
// ChunkPoints, and the header annotations; BlockSize and Transform are
// ignored.
type Options = codec.Options

// Stats is the unified compression outcome report (see codec.Stats).
type Stats = codec.Stats

// EstimateCapacity implements codec.CapacityEstimator: the container
// resolves AutoCapacity through it over the whole field, before tiling,
// so every chunk shares one quantizer geometry.
func (szCodec) EstimateCapacity(data []float64, dims []int, ebAbs float64) int {
	return estimateCapacity(data, dims, ebAbs)
}

// CompressChunk implements codec.Codec: the full per-chunk
// pipeline — QuantizeChunk, then the container's Huffman and DEFLATE
// entropy step — over one row slab.
func (c szCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	return codec.CompressQuantized(ctx, c, data, dims, prec, opt, sc)
}

// QuantizeChunk implements codec.ChunkQuantizer: Lorenzo prediction and
// quantization over one row slab, reporting the chunk's exact
// statistics. ctx is checked once up front; a chunk is the cancellation
// granularity of this pipeline.
func (szCodec) QuantizeChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt Options, sc *codec.Scratch) (codec.Quantized, error) {
	if err := ctx.Err(); err != nil {
		return codec.Quantized{}, err
	}
	if opt.Capacity == 0 {
		opt.Capacity = quantizer.DefaultCapacity
	}
	q, err := quantizer.New(opt.ErrorBound, opt.Capacity)
	if err != nil {
		return codec.Quantized{}, fmt.Errorf("sz: %w", err)
	}
	codes := sc.Int32s(len(data))
	recon := sc.Floats(len(data))
	literals, sumSq := compressCore(data, dims, q, codes, recon)
	sc.PutFloats(recon)
	out := codec.Quantized{Codes: codes, MaxSym: opt.Capacity - 1, Literals: literals, Prec: prec}
	// Chunk value bounds come from a dedicated vector-wide scan, run
	// while the chunk is still cache-resident from the prediction pass,
	// rather than from accumulators threaded through the serial,
	// latency-bound prediction loop, where they would cost registers the
	// grouped kernels need.
	out.Stats.Min, out.Stats.Max = codec.ValueBounds(data)
	out.Stats.Unpredictable = len(literals)
	out.Stats.MSE = sumSq / float64(len(data))
	return out, nil
}

// DecompressChunk implements codec.Codec, reconstructing chunk c
// into dst (the chunk's points): Lorenzo chunks here, and the one chunk
// of a log-domain (pointwise-relative) stream in decompressPWRelChunk.
// Per-chunk bounds written by selective recompression take precedence
// over the header bound. Constant streams, which the container decodes
// itself, have no chunks. Transient buffers come from sc (nil = fresh
// allocations).
func (szCodec) DecompressChunk(payload []byte, h *codec.Header, c int, dst []float64, sc *codec.Scratch) error {
	if h.Codec != codec.IDLorenzo && h.Codec != codec.IDLogLorenzo {
		return fmt.Errorf("sz: cannot decode chunks of stream ID %v", h.Codec)
	}
	if len(dst) != h.ChunkPoints(c) {
		return fmt.Errorf("sz: dst has %d points, want %d", len(dst), h.ChunkPoints(c))
	}
	if h.Codec == codec.IDLogLorenzo {
		return decompressPWRelChunk(payload, h, dst, sc)
	}
	q, err := quantizer.New(h.ChunkBound(c), h.Capacity)
	if err != nil {
		return err
	}
	codes, literals, err := sc.ParsePayload(payload, h.Precision, nil)
	if err != nil {
		return fmt.Errorf("sz: %w", err)
	}
	if len(codes) != len(dst) {
		sc.PutInt32s(codes)
		sc.PutFloats(literals)
		return fmt.Errorf("sz: %d codes, want %d", len(codes), len(dst))
	}
	err = decompressCore(dst, codes, literals, h.ChunkDims(c), q)
	sc.PutInt32s(codes)
	sc.PutFloats(literals)
	return err
}

// compressCore runs prediction + quantization over one slab, filling the
// caller-supplied codes buffer (one code per point; 0 marks a literal)
// and using recon as the reconstructed-value working buffer (both must
// have length len(data); prior contents are ignored and overwritten). It
// returns the literal values in scan order and the exact sum of squared
// reconstruction errors over the slab (non-finite pointwise errors
// excluded). Value bounds are not measured here — kernels.MinMax scans
// them vector-wide far faster than accumulators threaded through this
// serial loop.
func compressCore(data []float64, dims []int, q *quantizer.Quantizer, codes []int32, recon []float64) (literals []float64, sumSq float64) {
	var st coreState
	if len(dims) == 1 {
		dims = []int{1, dims[0]} // a 1-D slab is one row of a 2-D slab
	}
	switch len(dims) {
	case 2:
		compress2D(data, dims, codes, recon, &st, q)
	case 3:
		compress3D(data, dims, codes, recon, &st, q)
	default:
		panic("sz: unsupported rank")
	}
	return st.literals, st.sumSq
}

// coreState accumulates the slab's literals and Σe² across the
// per-rank prediction loops.
type coreState struct {
	literals []float64
	sumSq    float64
}

// quantizeStep quantizes one point against its prediction, accumulating
// the point's squared reconstruction error. Literals reconstruct
// exactly (error zero).
func quantizeStep(v, pred float64, q *quantizer.Quantizer, st *coreState) (code int32, recon float64) {
	c, rec, err, ok := q.QuantizeRecon(v - pred)
	if !ok {
		st.literals = append(st.literals, v)
		return 0, v
	}
	st.sumSq += err * err
	return int32(c), pred + rec
}

// compress2D runs the 2-D Lorenzo predictor row by row. The first row
// and first column use reduced stencils (missing neighbors predict 0, so
// their terms drop out); interior points read the full three-point
// stencil from re-sliced current/upper rows, which lets the compiler
// eliminate the per-point bounds checks the flat-index form pays.
func compress2D(data []float64, dims []int, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	rows, cols := dims[0], dims[1]
	drow := data[0:cols:cols]
	rrow := recon[0:cols:cols]
	crow := codes[0:cols:cols]
	prev := 0.0
	for j, v := range drow {
		crow[j], rrow[j] = quantizeStep(v, prev, q, st)
		prev = rrow[j]
	}
	for i := 1; i < rows; i++ {
		base := i * cols
		drow := data[base : base+cols : base+cols]
		rrow := recon[base : base+cols : base+cols]
		crow := codes[base : base+cols : base+cols]
		up := recon[base-cols : base : base]
		crow[0], rrow[0] = quantizeStep(drow[0], up[0], q, st)
		for j := 1; j < cols; j++ {
			crow[j], rrow[j] = quantizeStep(drow[j], rrow[j-1]+up[j]-up[j-1], q, st)
		}
	}
}

// wfScratch pools the wavefront scheduler's bookkeeping — the per-row
// literal segment table and arena on the encode side, the per-row
// literal offsets on the decode side, the kernels' per-row literal
// spill buffers, and the zero row that stands in for a neighbour row
// outside the slab. It is deliberately separate from codec.Scratch: these
// buffers are orders of magnitude smaller than the codes/recon slabs
// sharing those pools, and mixing sizes in one sync.Pool evicts the
// big buffers (a small buffer landing in the per-P private slot misses
// the next big request and both get reallocated).
type wfScratch struct {
	seg   []int
	offs  []int
	arena []float64
	lit   [4][]float64
	zero  []float64
}

var wfPool = sync.Pool{New: func() any { return new(wfScratch) }}

// zeroRow returns n zeros. Nothing writes the row, so it stays zero
// while it sits in the pool.
func (wf *wfScratch) zeroRow(n int) []float64 {
	if cap(wf.zero) < n {
		wf.zero = make([]float64, n)
	}
	return wf.zero[:n:n]
}

// kernelQuant mirrors q's constants for the internal/kernels fused row
// kernels.
func kernelQuant(q *quantizer.Quantizer) kernels.Quant {
	return kernels.Quant{
		InvDelta: q.InvDelta(),
		Delta:    q.Delta(),
		EB:       q.ErrorBound(),
		RadiusF:  float64(q.Radius()),
		Radius:   int64(q.Radius()),
	}
}

// neighbourRows returns the rows (i, j−1, ·), (i−1, j, ·) and
// (i−1, j−1, ·) of buf that the row kernels predict row (i, j) from,
// with zero standing in for each one outside the slab: its stencil terms
// then drop out, as a missing neighbour's do.
func neighbourRows(buf, zero []float64, i, j, d2, plane int) (up, pl, pu []float64) {
	base := i*plane + j*d2
	up, pl, pu = zero, zero, zero
	if j > 0 {
		up = buf[base-d2 : base : base]
	}
	if i > 0 {
		pl = buf[base-plane : base-plane+d2]
	}
	if i > 0 && j > 0 {
		pu = buf[base-plane-d2 : base-plane : base-plane]
	}
	return up, pl, pu
}

// wavefront3D visits every row of a d0×d1 row grid in an order that
// respects the Lorenzo dependency. Border rows (i == 0 or j == 0) depend
// on each other, so they go to border one at a time: plane i = 0 by j,
// then column j = 0 by i. Interior rows follow in anti-diagonal order:
// all rows with i+j == d are mutually independent (row (i,j) reads only
// rows (i,j−1), (i−1,j), (i−1,j−1), all on earlier diagonals), so the
// schedule hands them out in the widest groups available — quads, then a
// pair, then a leftover single — and each callback may process its rows
// concurrently-in-one-loop.
//
// With cross set, the one to three rows a diagonal leaves over wait for
// the next diagonal's first rows and form a group with them. Row (i', j')
// on diagonal d+1 reads only rows i' and i'−1 of diagonal d, so a row
// with a smaller i than every leftover row does not read them; the
// leftovers take such rows, smallest i first, up to four, and the next
// diagonal's quads start after them. A diagonal with at least one quad
// always has enough, so only the grid's short corner diagonals still
// leave pairs and singles. The decoder runs this order. The encoder
// does not: it adds each group's Σe² to the chunk total in schedule
// order, and that sum is written into the chunk table, so its order is
// part of the stream.
func wavefront3D(d0, d1 int, cross bool, border func(i, j int), quad func(i1, j1, i2, j2, i3, j3, i4, j4 int), pair func(i1, j1, i2, j2 int), single func(i, j int)) {
	for j := 0; j < d1; j++ {
		border(0, j)
	}
	for i := 1; i < d0; i++ {
		border(i, 0)
	}
	// held are the rows waiting for a group, as (i, j).
	var held [4][2]int
	nh := 0
	flush := func() {
		switch nh {
		case 4:
			quad(held[0][0], held[0][1], held[1][0], held[1][1], held[2][0], held[2][1], held[3][0], held[3][1])
		case 3:
			pair(held[0][0], held[0][1], held[1][0], held[1][1])
			single(held[2][0], held[2][1])
		case 2:
			pair(held[0][0], held[0][1], held[1][0], held[1][1])
		case 1:
			single(held[0][0], held[0][1])
		}
		nh = 0
	}
	for d := 2; d <= (d0-1)+(d1-1); d++ {
		iLo := 1
		if lo := d - (d1 - 1); lo > 1 {
			iLo = lo
		}
		iHi := d - 1
		if iHi > d0-1 {
			iHi = d0 - 1
		}
		i := iLo
		if nh > 0 {
			for ; nh < 4 && i <= iHi && i < held[0][0]; i++ {
				held[nh] = [2]int{i, d - i}
				nh++
			}
			flush()
		}
		for ; i+3 <= iHi; i += 4 {
			quad(i, d-i, i+1, d-i-1, i+2, d-i-2, i+3, d-i-3)
		}
		for ; i <= iHi; i++ {
			held[nh] = [2]int{i, d - i}
			nh++
		}
		if !cross {
			flush()
		}
	}
	flush()
}

// compress3D runs the 3-D Lorenzo predictor through the fused
// predict+quantize row kernels in wavefront order. Border rows go to
// kernels.PredictQuantizeRow one at a time, each seeded with the running
// Σe², so the border accumulates point by point in scan order. Interior
// rows sharing an anti-diagonal go to the kernels in groups — up to four
// serial recon dependency chains interleaved in one loop
// (kernels.PredictQuantizeRows4), which is what lifts the throughput of
// this latency-bound loop. The per-point arithmetic is the historical
// scan-order loop's (see kernels.PredictQuantizeRow) up to the sign of a
// zero prediction at a row's first point, which moves no code or
// reconstruction, so codes, reconstructions, and literals are unchanged;
// only the accumulation order of the interior's Σe² differs (per-row
// partial sums merged in schedule order), which can move the recorded
// chunk MSE by ulps.
//
// Literals are collected into a processing-order arena with per-row
// segments and re-concatenated in scan (row-major) order at the end,
// so the emitted literal stream is byte-identical to scan-order
// processing and the stream format is unchanged.
func compress3D(data []float64, dims []int, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		return
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	// Per-row literal segments in the arena: seg[2r] = start,
	// seg[2r+1] = length. Every row is visited exactly once, so no
	// clearing is needed.
	if cap(wf.seg) < 2*nrows {
		wf.seg = make([]int, 2*nrows)
	}
	seg := wf.seg[:2*nrows]
	arena := wf.arena[:0]
	ssum := st.sumSq

	qk := kernelQuant(q)
	for l := range wf.lit {
		if cap(wf.lit[l]) < d2 {
			wf.lit[l] = make([]float64, d2)
		}
	}
	zero := wf.zeroRow(d2)
	var rows [4]kernels.PQRow
	setRow := func(row *kernels.PQRow, i, j int, lit []float64) {
		base := i*plane + j*d2
		row.Data = data[base : base+d2 : base+d2]
		row.Recon = recon[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up, row.Pl, row.Pu = neighbourRows(recon, zero, i, j, d2, plane)
		row.Lits = lit[:0]
		row.SumSq = 0
	}
	flush := func(row *kernels.PQRow, i, j int) {
		r := i*d1 + j
		start := len(arena)
		arena = append(arena, row.Lits...)
		seg[2*r], seg[2*r+1] = start, len(row.Lits)
		ssum += row.SumSq
	}
	wavefront3D(d0, d1, false,
		func(i, j int) {
			// The row carries the running Σe² and flush adds it back to
			// a zeroed total, which is exact.
			setRow(&rows[0], i, j, wf.lit[0])
			rows[0].SumSq, ssum = ssum, 0
			kernels.PredictQuantizeRow(&qk, &rows[0])
			flush(&rows[0], i, j)
		},
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			setRow(&rows[2], i3, j3, wf.lit[2])
			setRow(&rows[3], i4, j4, wf.lit[3])
			kernels.PredictQuantizeRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
			flush(&rows[2], i3, j3)
			flush(&rows[3], i4, j4)
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			kernels.PredictQuantizeRows2(&qk, &rows[0], &rows[1])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
		},
		func(i, j int) {
			setRow(&rows[0], i, j, wf.lit[0])
			kernels.PredictQuantizeRow(&qk, &rows[0])
			flush(&rows[0], i, j)
		})

	if len(arena) > 0 {
		lits := st.literals
		for r := 0; r < nrows; r++ {
			s, l := seg[2*r], seg[2*r+1]
			lits = append(lits, arena[s:s+l]...)
		}
		st.literals = lits
	}
	wf.arena = arena
	wfPool.Put(wf)
	st.sumSq = ssum
}

// decompressCore reconstructs one slab in place into out.
func decompressCore(out []float64, codes []int32, literals []float64, dims []int, q *quantizer.Quantizer) error {
	li := 0
	nextLiteral := func() (float64, error) {
		if li >= len(literals) {
			return 0, fmt.Errorf("sz: literal stream exhausted")
		}
		v := literals[li]
		li++
		return v, nil
	}
	if len(dims) == 1 {
		dims = []int{1, dims[0]} // a 1-D slab is one row of a 2-D slab
	}
	switch len(dims) {
	case 2:
		// First row, then interior rows: the same interior/border split
		// as compress2D, with the stencil read from re-sliced rows so the
		// per-point bounds checks vanish.
		rows, cols := dims[0], dims[1]
		cur := out[0:cols:cols]
		prev := 0.0
		for j, c := range codes[0:cols:cols] {
			if c == 0 {
				v, err := nextLiteral()
				if err != nil {
					return err
				}
				cur[j] = v
			} else {
				cur[j] = prev + q.Reconstruct(int(c))
			}
			prev = cur[j]
		}
		for i := 1; i < rows; i++ {
			base := i * cols
			cur := out[base : base+cols : base+cols]
			crow := codes[base : base+cols : base+cols]
			up := out[base-cols : base : base]
			if c := crow[0]; c == 0 {
				v, err := nextLiteral()
				if err != nil {
					return err
				}
				cur[0] = v
			} else {
				cur[0] = up[0] + q.Reconstruct(int(c))
			}
			for j := 1; j < cols; j++ {
				c := crow[j]
				if c == 0 {
					v, err := nextLiteral()
					if err != nil {
						return err
					}
					cur[j] = v
					continue
				}
				cur[j] = cur[j-1] + up[j] - up[j-1] + q.Reconstruct(int(c))
			}
		}
	case 3:
		// The 3-D path reconstructs every row through the
		// reconstruction kernels, in compress3D's wavefront order.
		return decompress3D(out, codes, literals, dims, q)
	default:
		return fmt.Errorf("sz: unsupported rank %d", len(dims))
	}
	if li != len(literals) {
		return fmt.Errorf("sz: %d literals left over", len(literals)-li)
	}
	return nil
}

// decompress3D reconstructs a 3-D slab through the reconstruction row
// kernels: border rows one at a time through kernels.ReconstructRow,
// with the zero row standing in for neighbours outside the slab, then
// interior anti-diagonals through the grouped kernels
// (kernels.ReconstructRows4/Rows2). It runs wavefront3D's cross-diagonal
// order, which turns a diagonal's leftover rows into quads with the
// next diagonal's first rows, so nearly every interior row goes through
// the four-lane quad kernel. The literal stream is stored in scan
// order, so a count of each row's zero codes (kernels.CountZeros) gives
// every row its exact literal segment, and rows can then run in any
// dependency-respecting order: each row's values are its own stencil's,
// whatever order or group it runs in.
func decompress3D(out []float64, codes []int32, literals []float64, dims []int, q *quantizer.Quantizer) error {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		if len(literals) != 0 {
			return fmt.Errorf("sz: %d literals left over", len(literals))
		}
		return nil
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	if cap(wf.offs) < nrows+1 {
		wf.offs = make([]int, nrows+1)
	}
	offs := wf.offs[:nrows+1]
	total := 0
	for r := 0; r < nrows; r++ {
		offs[r] = total
		total += kernels.CountZeros(codes[r*d2 : (r+1)*d2])
	}
	offs[nrows] = total
	if total > len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: literal stream exhausted")
	}
	if total < len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: %d literals left over", len(literals)-total)
	}

	qk := kernelQuant(q)
	zero := wf.zeroRow(d2)
	var rows [4]kernels.RRRow
	setRow := func(row *kernels.RRRow, i, j int) {
		base := i*plane + j*d2
		r := i*d1 + j
		row.Out = out[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up, row.Pl, row.Pu = neighbourRows(out, zero, i, j, d2, plane)
		row.Lits = literals[offs[r]:offs[r+1]:offs[r+1]]
	}
	single := func(i, j int) {
		setRow(&rows[0], i, j)
		kernels.ReconstructRow(&qk, &rows[0])
	}
	wavefront3D(d0, d1, true, single,
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			setRow(&rows[2], i3, j3)
			setRow(&rows[3], i4, j4)
			kernels.ReconstructRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			kernels.ReconstructRows2(&qk, &rows[0], &rows[1])
		},
		single)
	wfPool.Put(wf)
	return nil
}

// estimateCapacity samples first-phase prediction errors (predicting from
// original values, which is a close proxy for the reconstructed-value
// predictions) and returns the smallest power-of-two capacity ≥ 256 whose
// interval range captures at least 99% of them, capped at the default
// capacity.
func estimateCapacity(data []float64, dims []int, eb float64) int {
	const (
		maxSamples = 1 << 16
		hitTarget  = 0.99
	)
	n := len(data)
	stride := n / maxSamples
	if stride < 1 {
		stride = 1
	}
	delta := 2 * eb
	// Collect |q| for sampled points using the rank-matched predictor on
	// original data.
	p := predictor.ForDims(dims)
	var absIdx []float64
	for i := stride; i < n; i += stride {
		absIdx = append(absIdx, math.Abs((data[i]-p.Predict(data, i))/delta))
	}
	if len(absIdx) == 0 {
		return quantizer.DefaultCapacity
	}
	for capacity := 256; capacity < quantizer.DefaultCapacity; capacity *= 2 {
		radius := float64(capacity / 2)
		hits := 0
		for _, a := range absIdx {
			if a < radius-0.5 {
				hits++
			}
		}
		if float64(hits)/float64(len(absIdx)) >= hitTarget {
			return capacity
		}
	}
	return quantizer.DefaultCapacity
}
