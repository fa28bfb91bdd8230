package codec

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fixedpsnr/internal/field"
	"fixedpsnr/internal/parallel"
	"fixedpsnr/internal/quantizer"
)

// The chunked container's encode side: tile a field into row-slab
// chunks, compress a subset of them through a ChunkCodec, and assemble
// the stream. Every encode path — a pipeline's whole-field Compress, the
// streaming EncodeFrom, and the plan layer's recompression passes — runs
// the one chunk loop in CompressChunks.

// Rows supplies the values of chunk ci of the stream h describes:
// h.ChunkPoints(ci) of them, row-major, starting at row
// h.Chunks[ci].RowStart. CompressChunks calls it serially, in subset
// order. A non-nil done is called once the chunk is compressed, so a
// source that reads into pooled buffers can recycle them.
type Rows func(h *Header, ci int) (data []float64, done func(), err error)

// FieldRows is the Rows of an in-memory field: every chunk is a
// sub-slice of data.
func FieldRows(data []float64) Rows {
	return func(h *Header, ci int) ([]float64, func(), error) {
		inner := h.InnerPoints()
		lo := h.Chunks[ci].RowStart * inner
		return data[lo : lo+h.Chunks[ci].Rows*inner], nil, nil
	}
}

// Encode compresses an in-memory field through cc. It measures the
// value range when opt.ValueRange is zero (callers that already know it
// pass it in to skip the scan); a zero range yields a ConstantStream.
func Encode(ctx context.Context, f *field.Field, cc ChunkCodec, opt Options, sc *Scratch) ([]byte, *Stats, error) {
	if err := f.Validate(); err != nil {
		return nil, nil, err
	}
	if opt.ValueRange == 0 {
		_, _, opt.ValueRange = f.ValueRange()
	}
	if opt.ValueRange == 0 {
		out, st := ConstantStream(f.Name, f.Precision, f.Dims, opt.Mode, f.Data[0])
		return out, st, nil
	}
	out, st, err := EncodeRows(ctx, f.Name, f.Precision, f.Dims, cc, opt, sc, FieldRows(f.Data))
	if err != nil {
		return nil, nil, err
	}
	st.ValueRange = opt.ValueRange
	return out, st, nil
}

// EncodeRows tiles a field of the given dims with cc's chunk planner,
// compresses every chunk from rows, and assembles the stream. The header
// records opt's bound, capacity (quantizer.DefaultCapacity when zero)
// and annotations under cc's first stream ID.
func EncodeRows(ctx context.Context, name string, prec field.Precision, dims []int, cc ChunkCodec, opt Options, sc *Scratch, rows Rows) ([]byte, *Stats, error) {
	if opt.Capacity == 0 {
		opt.Capacity = quantizer.DefaultCapacity
	}
	h := &Header{
		Codec:      cc.IDs()[0],
		Precision:  prec,
		Mode:       opt.Mode,
		Name:       name,
		Dims:       dims,
		EbAbs:      opt.ErrorBound,
		TargetPSNR: opt.TargetPSNR,
		ValueRange: opt.ValueRange,
		Capacity:   opt.Capacity,
	}
	if h.TargetPSNR == 0 && opt.Mode != ModePSNR {
		h.TargetPSNR = math.NaN()
	}
	spans := PlanChunkSpans(cc, dims, opt)
	h.Chunks = make([]ChunkInfo, len(spans))
	subset := make([]int, len(spans))
	for ci, s := range spans {
		h.Chunks[ci] = ChunkInfo{RowStart: s[0], Rows: s[1] - s[0]}
		subset[ci] = ci
	}
	payloads := make([][]byte, len(spans))
	if err := CompressChunks(ctx, cc, h, subset, payloads, opt, sc, rows); err != nil {
		return nil, nil, err
	}
	out, err := AssembleStream(h, payloads)
	if err != nil {
		return nil, nil, err
	}
	return out, StatsFromChunks(h, len(out), h.NPoints()*prec.Bytes()), nil
}

// CompressChunks compresses the chunks listed in subset under opt and
// records each one's payload in payloads[ci] and its length and
// statistics in h.Chunks[ci]; other chunks are untouched. At most
// opt.Workers goroutines take chunks in subset order, each compressing
// from the scratch shard of its parallel.Group slot; rows is called
// serially, in subset order, so a streaming source holds at most Workers
// chunks at once. A cancelled ctx stops the loop within one chunk per
// worker.
func CompressChunks(ctx context.Context, cc ChunkCodec, h *Header, subset []int, payloads [][]byte, opt Options, sc *Scratch, rows Rows) error {
	workers := opt.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	g := parallel.NewGroup(workers)
	var mu sync.Mutex // guards next and serializes rows
	next := 0
	for range min(workers, len(subset)) {
		g.Go(func(slot int) error {
			for {
				mu.Lock()
				if next == len(subset) || g.Err() != nil {
					mu.Unlock()
					return nil
				}
				ci := subset[next]
				next++
				err := ctx.Err()
				var data []float64
				var done func()
				if err == nil {
					data, done, err = rows(h, ci)
				}
				mu.Unlock()
				if err != nil {
					return err
				}
				payload, cst, err := cc.CompressChunk(ctx, data, h.ChunkDims(ci), h.Precision, opt, sc.Shard(slot))
				if done != nil {
					done()
				}
				if err != nil {
					return fmt.Errorf("codec: chunk %d: %w", ci, err)
				}
				payloads[ci] = payload
				ck := &h.Chunks[ci]
				ck.Len = len(payload)
				ck.Unpredictable = cst.Unpredictable
				ck.MSE = cst.MSE
				ck.Min, ck.Max = cst.Min, cst.Max
			}
		})
	}
	return g.Wait()
}

// ConstantStream encodes a field whose every value is v: the header
// alone, under the constant pseudo-codec.
func ConstantStream(name string, prec field.Precision, dims []int, mode Mode, v float64) ([]byte, *Stats) {
	h := &Header{Codec: IDConstant, Precision: prec, Mode: mode, Name: name, Dims: dims, ConstValue: v}
	out := h.Marshal()
	n := h.NPoints()
	return out, &Stats{
		OriginalBytes:   n * prec.Bytes(),
		CompressedBytes: len(out),
		Ratio:           float64(n*prec.Bytes()) / float64(len(out)),
		BitRate:         8 * float64(len(out)) / float64(n),
		NPoints:         n,
		Chunks:          1,
	}
}
