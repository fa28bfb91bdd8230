package plan

import (
	"context"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Drive is the generic quality-steering loop: given the first pass's
// output at opt.ErrorBound, it measures the target's statistic, asks the
// target's solver for the next bound, and recompresses until the target
// accepts the stream or its pass budget runs out — whichever comes first.
// The codec never learns what it is being steered toward; it only ever
// sees an absolute bound.
//
// For the fixed-PSNR target this is the paper's calibrated mode
// (Theorem 1: the quantization-stage MSE equals the end-to-end MSE, so
// each pass measures its exact distortion for free); for the fixed-ratio
// target the same loop steers on aggregate compressed bytes. Both steer
// on statistics aggregated from the stream's chunk table when present,
// and both recompress through the chunk-aware path: a distortion-steered
// target keeps exact (MSE == 0) chunks verbatim across passes, a
// size-steered one redoes every chunk at the new bound.
//
// Drive returns the final stream, stats, the absolute bound it settled
// on, and the number of compression passes consumed (1 = the first pass
// was accepted as-is). A nil target — single-pass modes — passes the
// first pass through untouched. ctx is checked before every extra
// compression pass (and threaded into the codec, which checks it between
// chunks); sc supplies reusable scratch buffers to each pass (nil =
// allocate fresh).
func Drive(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, blob []byte, st *codec.Stats, tgt Target, sc *codec.Scratch) ([]byte, *codec.Stats, float64, int, error) {
	ebAbs := opt.ErrorBound
	if tgt == nil {
		return blob, st, ebAbs, 1, nil
	}
	history := []Pass{{Bound: ebAbs, Measured: tgt.Measure(blob, st)}}
	for pass := 0; pass < tgt.MaxPasses(); pass++ {
		next, done, err := tgt.Solve(history)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if done {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, 0, err
		}
		opt.ErrorBound = next
		nb, nst, nerr := recompress(ctx, f, c, opt, blob, tgt.PinExactChunks(), sc)
		if nerr != nil {
			return nil, nil, 0, 0, nerr
		}
		blob, st, ebAbs = nb, nst, next
		history = append(history, Pass{Bound: next, Measured: tgt.Measure(blob, st)})
	}
	return blob, st, ebAbs, len(history), nil
}

// recompress produces a stream at the (new) bound in opt. For chunked
// streams from a ChunkCodec it reuses the previous pass's tiling and
// container geometry, recompressing chunks in parallel through the same
// recompressSubset worker the region-group loop uses; with pinExact set,
// chunks whose recorded MSE is zero — already exact, so their error
// contribution is final at any bound — keep their payloads verbatim with
// their previous bound pinned in their chunk entries. Non-chunked
// streams (and, under pinExact, streams without measured chunk
// statistics) fall back to a full Compress pass.
func recompress(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, prev []byte, pinExact bool, sc *codec.Scratch) ([]byte, *codec.Stats, error) {
	cc, ok := c.(codec.ChunkCodec)
	if !ok {
		return c.Compress(ctx, f, opt, sc)
	}
	h, err := codec.ParseHeader(prev)
	if err != nil || len(h.Chunks) == 0 {
		return c.Compress(ctx, f, opt, sc)
	}
	if pinExact && math.IsNaN(h.AggregateMSE()) {
		// Pinning decisions need measured per-chunk MSEs.
		return c.Compress(ctx, f, opt, sc)
	}

	work, payloads, err := workingCopy(h, prev)
	if err != nil {
		return nil, nil, err
	}
	work.EbAbs = opt.ErrorBound
	subset := make([]int, len(h.Chunks))
	for ci := range subset {
		subset[ci] = ci
	}
	opt.Capacity = h.Capacity // keep the container's quantizer geometry across passes
	if err := recompressSubset(ctx, f, cc, opt, work, subset, payloads, opt.ErrorBound, pinExact, false, sc); err != nil {
		return nil, nil, err
	}
	return assemble(work, payloads)
}

// workingCopy returns an editable copy of a parsed stream's header plus
// its chunk payloads — the state a steering loop rewrites in place before
// assembling the final stream once. Every chunk entry records the bound
// it was actually quantized with, so chunks a later pass leaves alone
// keep it.
func workingCopy(h *codec.Header, blob []byte) (*codec.Header, [][]byte, error) {
	work := *h
	work.Chunks = append([]codec.ChunkInfo(nil), h.Chunks...)
	payloads := make([][]byte, len(h.Chunks))
	for ci := range h.Chunks {
		var err error
		if payloads[ci], err = codec.ChunkPayload(blob, h, ci); err != nil {
			return nil, nil, err
		}
		work.Chunks[ci].EbAbs = h.ChunkBound(ci)
	}
	return &work, payloads, nil
}

// assemble finalizes a steered working copy into its stream and stats.
func assemble(work *codec.Header, payloads [][]byte) ([]byte, *codec.Stats, error) {
	out, err := codec.AssembleStream(work, payloads)
	if err != nil {
		return nil, nil, err
	}
	st := codec.StatsFromChunks(work, len(out), work.NPoints()*work.Precision.Bytes())
	if work.ValueRange > 0 {
		st.ValueRange = work.ValueRange
	}
	return out, st, nil
}
