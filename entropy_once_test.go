package fixedpsnr_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync/atomic"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// countID is the stream ID of countCodec.
const countID codec.ID = 202

// countCodec is the sz pipeline registered under its own name and
// stream ID, counting the calls to its quantize step and to its full
// chunk compression. The container's entropy step is counted by
// codec.EntropySteps.
type countCodec struct {
	codec.ChunkQuantizer
	quantized   atomic.Int64 // QuantizeChunk calls, from either path
	zeroChunks  atomic.Int64 // of those, chunks whose every value is zero
	compressed  atomic.Int64 // CompressChunk calls
	entropyBase int64
}

func (*countCodec) Name() string    { return "count-sz" }
func (*countCodec) IDs() []codec.ID { return []codec.ID{countID} }

func (c *countCodec) QuantizeChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) (codec.Quantized, error) {
	c.quantized.Add(1)
	zero := true
	for _, v := range data {
		zero = zero && v == 0
	}
	if zero {
		c.zeroChunks.Add(1)
	}
	return c.ChunkQuantizer.QuantizeChunk(ctx, data, dims, prec, opt, sc)
}

func (c *countCodec) CompressChunk(ctx context.Context, data []float64, dims []int, prec field.Precision, opt codec.Options, sc *codec.Scratch) ([]byte, codec.ChunkStats, error) {
	c.compressed.Add(1)
	return codec.CompressQuantized(ctx, c, data, dims, prec, opt, sc)
}

// DecompressChunk decodes a relabelled chunk as the sz chunk it is.
func (c *countCodec) DecompressChunk(payload []byte, h *codec.Header, ci int, dst []float64, sc *codec.Scratch) error {
	lorenzo := *h
	lorenzo.Codec = codec.IDLorenzo
	return c.ChunkQuantizer.DecompressChunk(payload, &lorenzo, ci, dst, sc)
}

// reset zeroes the counters before an encode.
func (c *countCodec) reset() {
	c.quantized.Store(0)
	c.zeroChunks.Store(0)
	c.compressed.Store(0)
	c.entropyBase = codec.EntropySteps()
}

// entropy is the number of chunks entropy-coded since reset.
func (c *countCodec) entropy() int64 { return codec.EntropySteps() - c.entropyBase }

var counting = func() *countCodec {
	sz, _ := codec.ByName("sz")
	c := &countCodec{ChunkQuantizer: sz.(codec.ChunkQuantizer)}
	codec.Register(c)
	return c
}()

// countEncode compresses f through the counting codec, with its counters
// reset first, and checks the stream decodes to the bits of the same
// encode through sz.
func countEncode(t *testing.T, f *fixedpsnr.Field, opt fixedpsnr.Options) (*fixedpsnr.StreamInfo, *fixedpsnr.Result) {
	t.Helper()
	ref, _, err := fixedpsnr.Compress(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	counting.reset()
	opt.Codec = "count-sz"
	blob, res, err := fixedpsnr.Compress(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fixedpsnr.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fixedpsnr.Decompress(ref)
	if err != nil {
		t.Fatal(err)
	}
	if decodeDigest(got) != decodeDigest(want) {
		t.Fatal("counting codec's stream decodes differently from sz's")
	}
	h, err := fixedpsnr.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	return h, res
}

// TestCalibratedEntropyCodesOnce: a calibrated fixed-PSNR encode measures
// every pass from its quantized chunks (Theorem 1), so however many
// passes it takes, each of its k chunks is entropy-coded exactly once and
// no chunk goes through the full CompressChunk.
func TestCalibratedEntropyCodesOnce(t *testing.T) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 0)()
	h, res := countEncode(t, f, fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 30, Calibrated: true, Workers: 2})
	k := int64(len(h.Chunks))
	if res.Passes < 3 {
		t.Fatalf("%d passes; the test needs at least 3", res.Passes)
	}
	if got := counting.entropy(); got != k {
		t.Fatalf("%d chunks entropy-coded over %d passes, want %d (one per chunk)", got, res.Passes, k)
	}
	if got, want := counting.quantized.Load(), k*int64(res.Passes); got != want {
		t.Fatalf("%d chunk quantizations, want %d (every chunk every pass)", got, want)
	}
	if n := counting.compressed.Load(); n != 0 {
		t.Fatalf("%d full chunk compressions, want 0", n)
	}
}

// TestCalibratedPassesSkipPinnedChunks: a chunk that is exact at its
// bound is pinned, so after the first pass every pass quantizes only the
// other chunks — and still nothing is entropy-coded twice.
func TestCalibratedPassesSkipPinnedChunks(t *testing.T) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 4)()
	h, res := countEncode(t, f, fixedpsnr.Options{Mode: fixedpsnr.ModePSNR, TargetPSNR: 60, Calibrated: true, Workers: 2, ChunkRows: 4})
	k, passes := int64(len(h.Chunks)), int64(res.Passes)
	pinned := int64(0)
	for _, c := range h.Chunks {
		if c.MSE == 0 {
			pinned++
		}
	}
	if passes < 3 || pinned != 1 {
		t.Fatalf("%d passes with %d exact chunks; the test needs at least 3 and 1", passes, pinned)
	}
	if got, want := counting.quantized.Load(), k+(passes-1)*(k-pinned); got != want {
		t.Fatalf("%d chunk quantizations, want %d (%d chunks, then %d per pass)", got, want, k, k-pinned)
	}
	if got := counting.zeroChunks.Load(); got != 1 {
		t.Fatalf("the exact chunk was quantized %d times, want once", got)
	}
	if got := counting.entropy(); got != k {
		t.Fatalf("%d chunks entropy-coded, want %d", got, k)
	}
}

// TestRatioEntropyCodesEveryPass: a fixed-ratio target reads compressed
// bytes, so every pass compresses every chunk in full.
func TestRatioEntropyCodesEveryPass(t *testing.T) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 0)()
	h, res := countEncode(t, f, fixedpsnr.Options{Mode: fixedpsnr.ModeRatio, TargetRatio: 16, Workers: 2})
	k, passes := int64(len(h.Chunks)), int64(res.Passes)
	if passes < 2 {
		t.Fatalf("%d passes; the test needs at least 2", passes)
	}
	if got, want := counting.entropy(), k*passes; got != want {
		t.Fatalf("%d chunks entropy-coded over %d passes of %d chunks, want %d", got, passes, k, want)
	}
	if got, want := counting.compressed.Load(), k*passes; got != want {
		t.Fatalf("%d full chunk compressions, want %d", got, want)
	}
}

// TestRegionEntropyCodesPSNRGroupOnce: a PSNR region over a ratio
// background. The ratio group entropy-codes its chunks on every one of
// its passes; the PSNR group's chunks are entropy-coded once, in the
// final assembly, however many passes the group takes.
func TestRegionEntropyCodesPSNRGroupOnce(t *testing.T) {
	f := hurricaneField("PRECIP", fixedpsnr.Float32, 0)()
	h, res := countEncode(t, f, fixedpsnr.Options{
		Mode: fixedpsnr.ModeRatio, TargetRatio: 12, Workers: 2, ChunkRows: 4,
		RegionTargets: []fixedpsnr.RegionTarget{{
			Region: fixedpsnr.Region{Off: []int{4, 0, 0}, Ext: []int{4, 64, 64}},
			Mode:   fixedpsnr.ModePSNR, TargetPSNR: 60,
		}},
	})
	roi, bg := res.Regions[0], res.Regions[1]
	if roi.Passes < 3 || bg.Passes < 2 || roi.Chunks+bg.Chunks != len(h.Chunks) {
		t.Fatalf("roi %d passes over %d chunks, background %d over %d; the test needs at least 3 and 2",
			roi.Passes, roi.Chunks, bg.Passes, bg.Chunks)
	}
	if got, want := counting.entropy(), int64(roi.Chunks+bg.Chunks*bg.Passes); got != want {
		t.Fatalf("%d chunks entropy-coded, want %d (roi %d once, background %d × %d passes)",
			got, want, roi.Chunks, bg.Chunks, bg.Passes)
	}
}

// calibratedCancelSession is the encoder of the calibrated cancellation
// tests: one worker and 2-row chunks over a field that takes several
// passes, so the pass loop and both chunk loops check ctx many times.
func calibratedCancelSession(t *testing.T) *fixedpsnr.Encoder {
	return mustEncoder(t,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(30),
		fixedpsnr.WithCalibrated(true),
		fixedpsnr.WithWorkers(1),
		fixedpsnr.WithChunkRows(2),
	)
}

// countingCtx counts Err checks and never cancels.
type countingCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countingCtx) Err() error {
	c.n.Add(1)
	return nil
}

// testCalibratedCancellation cancels a calibrated encode at the check
// numbered trip(total checks, chunks, passes) and requires
// context.Canceled, then a post-cancel Encode on the same session that
// matches a fresh session's stream.
func testCalibratedCancellation(t *testing.T, trip func(total, chunks, passes int) int) {
	f := hurricaneField("QCLOUD", fixedpsnr.Float32, 0)()
	probe := &countingCtx{Context: context.Background()}
	ref, res, err := calibratedCancelSession(t).Encode(probe, f)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fixedpsnr.Inspect(ref)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes < 3 {
		t.Fatalf("%d passes; the test needs at least 3", res.Passes)
	}
	if entry := calibratedChecks(int(probe.n.Load()), len(h.Chunks), res.Passes); entry != 1 {
		t.Fatalf("%d ctx checks for %d chunks over %d passes leave %d entry checks, want 1",
			probe.n.Load(), len(h.Chunks), res.Passes, entry)
	}
	enc := calibratedCancelSession(t)
	ctx := &countdownCtx{Context: context.Background(), left: trip(int(probe.n.Load()), len(h.Chunks), res.Passes)}
	if _, _, err := enc.Encode(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got, _, err := enc.Encode(context.Background(), f)
	if err != nil {
		t.Fatalf("post-cancel encode: %v", err)
	}
	if sha256.Sum256(got) != sha256.Sum256(ref) {
		t.Fatal("post-cancel encode differs from a fresh session's")
	}
}

// calibratedChecks splits the ctx checks of an uncancelled calibrated
// encode of chunks chunks over passes passes: every quantize pass checks
// twice per chunk (the chunk loop and the pipeline), every pass after the
// first once before it starts, and the final entropy loop once per
// chunk, after the encode's own entry checks.
func calibratedChecks(total, chunks, passes int) (entry int) {
	return total - 2*chunks*passes - (passes - 1) - chunks
}

// TestEncoderCalibratedCancellationLaterPass trips halfway through the
// second pass's quantize loop.
func TestEncoderCalibratedCancellationLaterPass(t *testing.T) {
	testCalibratedCancellation(t, func(total, chunks, passes int) int {
		return calibratedChecks(total, chunks, passes) + 2*chunks + 1 + chunks
	})
}

// TestEncoderCalibratedCancellationEntropyStep trips halfway through the
// final entropy loop, whose per-chunk checks are the encode's last.
func TestEncoderCalibratedCancellationEntropyStep(t *testing.T) {
	testCalibratedCancellation(t, func(total, chunks, passes int) int {
		return total - chunks/2
	})
}
