package plan

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// Drive steers a whole field: it compresses f at opt.ErrorBound and
// hands the pass to solve, which measures the target's statistic, asks
// the target's solver for the next bound, and recompresses until the
// target accepts the pass or its pass budget runs out — whichever comes
// first. The codec never learns what it is being steered toward; it only
// ever sees an absolute bound.
//
// For the fixed-PSNR target this is the paper's calibrated mode
// (Theorem 1: the quantization-stage MSE equals the end-to-end MSE, so
// each pass measures its exact distortion for free); for the fixed-ratio
// target the same loop steers on the stream's bytes, header included.
// Every pass runs on a codec.Draft (see steer): a distortion-steered
// target keeps exact (MSE == 0) chunks verbatim across passes, and
// because it reads no bytes its passes stop at quantization — only the
// returned pass is entropy-coded, once. A size-steered target redoes
// every chunk at the new bound and entropy-codes every pass it
// measures. A constant field has no chunks to steer and is rejected.
//
// Drive returns the final stream, stats, the absolute bound it settled
// on, and the number of compression passes consumed (1 = the first pass
// was accepted as-is). A nil target — single-pass modes — runs the one
// pass through codec.Encode. ctx is checked before every extra pass and
// inside the chunk loops; sc supplies reusable scratch buffers to each
// pass (nil = allocate fresh), and every buffer a pass retains goes back
// to it, also when the encode fails or is cancelled.
func Drive(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, tgt Target, sc *codec.Scratch) ([]byte, *codec.Stats, float64, int, error) {
	if tgt == nil {
		blob, st, err := codec.Encode(ctx, f, c, opt, sc)
		return blob, st, opt.ErrorBound, 1, err
	}
	s, err := steer(ctx, f, c, opt, tgt, sc)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer s.d.Release()
	bound, passes, err := solve(ctx, tgt, opt.ErrorBound,
		func() (float64, error) { return s.measure(ctx, tgt) },
		func(bound float64) error { return s.pass(ctx, tgt, bound) })
	if err != nil {
		return nil, nil, 0, 0, err
	}
	blob, st, err := s.assemble(ctx)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return blob, st, bound, passes, nil
}

// solve is the one steering loop. The pass at bound is already made: it
// measures it, then, until tgt accepts or its pass budget runs out,
// checks ctx, redoes the pass at the bound tgt proposes and measures
// again. It returns the last pass's bound and the number of passes,
// counting the one it started from.
func solve(ctx context.Context, tgt Target, bound float64, measure func() (float64, error), redo func(bound float64) error) (float64, int, error) {
	m, err := measure()
	if err != nil {
		return 0, 0, err
	}
	history := []Pass{{Bound: bound, Measured: m}}
	for range tgt.MaxPasses() {
		next, done, err := tgt.Solve(history)
		if err != nil {
			return 0, 0, err
		}
		if done {
			break
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		if err := redo(next); err != nil {
			return 0, 0, err
		}
		if m, err = measure(); err != nil {
			return 0, 0, err
		}
		bound = next
		history = append(history, Pass{Bound: next, Measured: m})
	}
	return bound, len(history), nil
}

// steering is the state Drive and DriveGroups rewrite pass by pass: the
// stream's chunks in a codec.Draft, each either quantized or
// entropy-coded. A pass redoes only the chunks it must, and the chunks
// of passes nothing reads bytes from stay quantized until the final
// assembly.
type steering struct {
	f   *field.Field
	c   codec.Codec
	opt codec.Options
	sc  *codec.Scratch

	d *codec.Draft
	// blob and st are the Draft as last assembled (nil once a pass
	// rewrites it).
	blob []byte
	st   *codec.Stats
}

// steer runs the first pass at opt.ErrorBound. It tiles the field
// through codec.TileField — the entry unsteered encodes take,
// AutoCapacity included — and runs on the Draft: it stops at
// quantization when the codec is a ChunkQuantizer and tgt reads no bytes
// (a nil tgt, the region groups' shared pass, reads none), and runs
// CompressChunk otherwise. The Draft holds stages, so a
// codec.StagedQuantizer stages each chunk on this pass only and every
// later pass, on whatever target, re-runs just its quantize loop. A
// constant field has no chunks to steer and is an error.
func steer(ctx context.Context, f *field.Field, c codec.Codec, opt codec.Options, tgt Target, sc *codec.Scratch) (*steering, error) {
	d, err := codec.TileField(f, c, opt)
	if err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("plan: steering needs a chunked stream (a constant field has no chunks)")
	}
	d.HoldStages()
	s := &steering{f: f, c: c, opt: opt, sc: sc, d: d}
	if err := s.run(ctx, tgt, d.All()); err != nil {
		d.Release()
		return nil, err
	}
	return s, nil
}

// run redoes the chunks of subset at s.opt.ErrorBound: quantized only
// when tgt reads no bytes, entropy-coded too otherwise.
func (s *steering) run(ctx context.Context, tgt Target, subset []int) error {
	return s.d.Run(ctx, s.c, subset, s.opt, s.sc, codec.FieldRows(s.f.Data), tgt == nil || !tgt.ReadsBytes())
}

// pass recompresses the field at bound for Drive.
func (s *steering) pass(ctx context.Context, tgt Target, bound float64) error {
	s.rebase()
	s.d.Header.EbAbs = bound
	return s.recompress(ctx, tgt, s.d.All(), bound, false)
}

// rebase makes every chunk entry record the bound it was quantized
// with, so chunks a later pass leaves alone keep it, and drops the
// stream assembled from the old chunk table.
func (s *steering) rebase() {
	h := s.d.Header
	for ci := range h.Chunks {
		h.Chunks[ci].EbAbs = h.ChunkBound(ci)
	}
	s.blob, s.st = nil, nil
}

// recompress redoes one chunk subset at a new bound, leaving every other
// chunk untouched; the redone chunks stop at quantization unless tgt
// reads bytes. Under a target that reads no bytes, chunks whose recorded
// MSE is zero — exact at their current bound, so their error
// contribution is final — keep their state and entries verbatim;
// pinning is skipped entirely when any chunk in the subset lacks a
// measured MSE, because the pinning decision needs one.
//
// explicit selects the bound bookkeeping of redone entries: group
// steering records the bound in every chunk entry (grouped streams have
// no single field-level bound), while the field-wide loop leaves it 0 —
// "the header bound" — preserving the historical ungrouped entry layout
// byte for byte.
func (s *steering) recompress(ctx context.Context, tgt Target, subset []int, bound float64, explicit bool) error {
	h := s.d.Header
	if tgt != nil && !tgt.ReadsBytes() && !slices.ContainsFunc(subset, func(ci int) bool { return math.IsNaN(h.Chunks[ci].MSE) }) {
		subset = slices.DeleteFunc(slices.Clone(subset), func(ci int) bool { return h.Chunks[ci].MSE == 0 })
	}
	s.opt.ErrorBound = bound
	if err := s.run(ctx, tgt, subset); err != nil {
		return err
	}
	for _, ci := range subset {
		h.Chunks[ci].EbAbs = 0
		if explicit {
			h.Chunks[ci].EbAbs = bound
		}
	}
	return nil
}

// measure reads tgt's field-wide statistic off the latest pass: from the
// Draft's chunk table when tgt reads no bytes, else from the stats of
// the assembled stream.
func (s *steering) measure(ctx context.Context, tgt Target) (float64, error) {
	if !tgt.ReadsBytes() {
		return tgt.MeasureGroup(s.d.Header, s.d.All()), nil
	}
	if s.blob == nil {
		var err error
		if s.blob, s.st, err = s.assemble(ctx); err != nil {
			return 0, err
		}
	}
	return tgt.Measure(s.st), nil
}

// measureGroup reads tgt's statistic over one group's chunks off the
// chunk table, entropy-coding the group's quantized chunks first when
// tgt reads bytes.
func (s *steering) measureGroup(ctx context.Context, tgt Target, subset []int) (float64, error) {
	if tgt.ReadsBytes() {
		if err := s.d.EntropyCode(ctx, subset, s.opt.Workers, s.sc); err != nil {
			return 0, err
		}
	}
	return tgt.MeasureGroup(s.d.Header, subset), nil
}

// assemble returns the latest pass as a stream and its stats,
// entropy-coding whatever chunks are still quantized.
func (s *steering) assemble(ctx context.Context) ([]byte, *codec.Stats, error) {
	if s.blob != nil {
		return s.blob, s.st, nil
	}
	out, st, err := s.d.Assemble(ctx, s.opt.Workers, s.sc)
	if err != nil {
		return nil, nil, err
	}
	if s.d.Header.ValueRange > 0 {
		st.ValueRange = s.d.Header.ValueRange
	}
	return out, st, nil
}
