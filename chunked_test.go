package fixedpsnr_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"fixedpsnr"
)

// noisyField builds a deterministic field with smooth structure plus
// noise, so quantization errors spread across bins and the calibrated
// refinement has a well-behaved MSE(δ) curve.
func noisyField(name string, sigma float64, dims ...int) *fixedpsnr.Field {
	f := fixedpsnr.NewField(name, fixedpsnr.Float32, dims...)
	rng := rand.New(rand.NewSource(42))
	for i := range f.Data {
		v := math.Sin(float64(i)/53) + sigma*rng.NormFloat64()
		f.Data[i] = float64(float32(v))
	}
	return f
}

// legacyStream re-serializes a current (v3) stream in the legacy v1/v2
// layout: old header, same payloads. The payload formats never changed,
// so the result is exactly what an old writer would have produced.
func legacyStream(t *testing.T, blob []byte, version byte) []byte {
	t.Helper()
	h, err := fixedpsnr.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	head, err := h.MarshalLegacy(version)
	if err != nil {
		t.Fatal(err)
	}
	return append(head, blob[h.PayloadOffset():]...)
}

// regionCases returns representative regions of a 3-D field: the whole
// field, one plane, an interior block spanning chunk boundaries, and a
// far corner.
func regionCases(dims []int) [][2][]int {
	return [][2][]int{
		{{0, 0, 0}, {dims[0], dims[1], dims[2]}},
		{{dims[0] / 2, 0, 0}, {1, dims[1], dims[2]}},
		{{dims[0]/4 + 1, 3, 2}, {dims[0] / 2, dims[1] / 3, dims[2] / 2}},
		{{dims[0] - 2, dims[1] - 3, dims[2] - 4}, {2, 3, 4}},
	}
}

// DecodeRegion must be byte-identical to slicing a full Decode, for both
// chunk-capable pipelines, across chunk boundaries.
func TestDecodeRegionMatchesFullDecode(t *testing.T) {
	dims := []int{64, 64, 16}
	f := noisyField("region", 0.05, dims...)
	dec := fixedpsnr.NewDecoder()
	configs := map[string]fixedpsnr.Options{
		"sz-chunkpoints":  {Mode: fixedpsnr.ModePSNR, TargetPSNR: 70, ChunkPoints: fixedpsnr.MinChunkPoints, Workers: 2},
		"sz-chunkrows":    {Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, ChunkRows: 5, Workers: 2},
		"otc-chunkpoints": {Mode: fixedpsnr.ModePSNR, TargetPSNR: 70, Compressor: fixedpsnr.CompressorTransform, ChunkPoints: fixedpsnr.MinChunkPoints},
	}
	for name, opt := range configs {
		blob, _, err := fixedpsnr.Compress(f, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := fixedpsnr.Inspect(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Chunks) < 2 {
			t.Fatalf("%s: want a multi-chunk stream, got %d chunks", name, len(h.Chunks))
		}
		full, _, err := dec.Decode(context.Background(), blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rc := range regionCases(dims) {
			off, ext := rc[0], rc[1]
			got, _, err := dec.DecodeRegion(context.Background(), blob, off, ext)
			if err != nil {
				t.Fatalf("%s: region %v+%v: %v", name, off, ext, err)
			}
			want, err := full.Slice(off, ext)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: region %v+%v differs from full decode at %d", name, off, ext, i)
				}
			}
		}
	}
	// Out-of-range regions are rejected.
	blob, _, err := fixedpsnr.Compress(f, configs["sz-chunkrows"])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.DecodeRegion(context.Background(), blob, []int{0, 0, 0}, []int{65, 1, 1}); err == nil {
		t.Fatal("oversized region accepted")
	}
	if _, _, err := dec.DecodeRegion(context.Background(), blob, []int{0}, []int{1}); err == nil {
		t.Fatal("rank-mismatched region accepted")
	}
}

// Streams that are not ordinary multi-chunk containers —
// pointwise-relative, constant, and legacy single-chunk formats — must
// answer region requests like any other.
func TestDecodeRegionFallbacks(t *testing.T) {
	dims := []int{20, 24, 8}
	f := noisyField("fb", 0.02, dims...)
	for i := range f.Data {
		f.Data[i] += 2 // keep values away from zero for pwrel
	}
	dec := fixedpsnr.NewDecoder()
	off, ext := []int{3, 4, 1}, []int{5, 6, 4}

	check := func(name string, blob []byte) {
		t.Helper()
		full, _, err := fixedpsnr.Decompress(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _, err := dec.DecodeRegion(context.Background(), blob, off, ext)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := full.Slice(off, ext)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: region differs from full decode at %d", name, i)
			}
		}
	}

	pwrel, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModePWRel, PWRelBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	check("pwrel", pwrel)

	c := fixedpsnr.NewField("const", fixedpsnr.Float32, dims...)
	for i := range c.Data {
		c.Data[i] = 7.5
	}
	constant, _, err := fixedpsnr.Compress(c, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs})
	if err != nil {
		t.Fatal(err)
	}
	check("constant", constant)

	v3, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, ChunkRows: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("legacy-v1", legacyStream(t, v3, 1))
	check("legacy-v2", legacyStream(t, v3, 2))
}

// Acceptance: chunked encode in calibrated mode still hits the *global*
// fixed-PSNR target — per-chunk MSEs aggregate to the field MSE the
// refinement steers on.
func TestChunkedCalibratedGlobalPSNR(t *testing.T) {
	f := noisyField("cal", 0.1, 48, 64, 64)
	for _, target := range []float64{35, 45} {
		blob, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{
			Mode:        fixedpsnr.ModePSNR,
			TargetPSNR:  target,
			Calibrated:  true,
			ChunkPoints: fixedpsnr.MinChunkPoints,
		})
		if err != nil {
			t.Fatalf("target %g: %v", target, err)
		}
		h, err := fixedpsnr.Inspect(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Chunks) < 2 {
			t.Fatalf("target %g: want a multi-chunk stream, got %d chunks", target, len(h.Chunks))
		}
		g, _, err := fixedpsnr.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		d := fixedpsnr.CompareFields(f, g)
		if math.Abs(d.PSNR-target) > 0.5 {
			t.Fatalf("target %g: measured %.3f dB outside ±0.5", target, d.PSNR)
		}
		// The aggregate of the per-chunk MSEs is the true global MSE
		// (Theorem 1, summed over chunks).
		if agg := h.AggregateMSE(); math.Abs(agg-d.MSE) > 1e-12*math.Max(agg, d.MSE) {
			t.Fatalf("target %g: aggregated chunk MSE %g != measured %g", target, agg, d.MSE)
		}
		if math.Abs(res.MeasuredPSNR-d.PSNR) > 1e-6 {
			t.Fatalf("target %g: reported %.4f dB, measured %.4f dB", target, res.MeasuredPSNR, d.PSNR)
		}
	}
}

// Selective recompression: a chunk that reconstructs exactly (a zero
// slab — the masked/padded regions ubiquitous in scientific fields)
// keeps its payload across refinement passes, with its original bound
// pinned in its chunk entry, and still decodes exactly.
func TestSelectiveRecompressionPinsLosslessChunks(t *testing.T) {
	dims := []int{64, 32, 16}
	f := noisyField("pin", 0.2, dims...)
	inner := dims[1] * dims[2]
	for i := 0; i < 32*inner; i++ {
		f.Data[i] = 0 // rows 0..31: zeros predict exactly (chunk MSE 0)
	}
	blob, res, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode:       fixedpsnr.ModePSNR,
		TargetPSNR: 35,
		Calibrated: true,
		ChunkRows:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := fixedpsnr.Inspect(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(h.Chunks))
	}
	if h.Chunks[0].MSE != 0 {
		t.Fatalf("constant chunk MSE = %g, want 0", h.Chunks[0].MSE)
	}
	_, _, vr := f.ValueRange()
	initial := fixedpsnr.RelBoundForPSNR(35) * vr
	refined := math.Abs(res.EbAbs-initial) > 1e-12*initial
	if h.Chunks[0].EbAbs != 0 {
		// Refinement kept the chunk: its entry must pin a bound that
		// differs from the header's final bound.
		if h.Chunks[0].EbAbs == h.EbAbs {
			t.Fatalf("pinned chunk bound equals header bound %g", h.EbAbs)
		}
	} else if refined {
		t.Log("refinement ran but constant chunk carries the header bound (first pass landed in band)")
	}
	// The zero slab reconstructs exactly, via region decode.
	g, _, err := fixedpsnr.NewDecoder().DecodeRegion(context.Background(), blob,
		[]int{0, 0, 0}, []int{32, dims[1], dims[2]})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("zero slab value %g at %d", v, i)
		}
	}
	// And the whole stream still meets the global target.
	full, _, err := fixedpsnr.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if d := fixedpsnr.CompareFields(f, full); math.Abs(d.PSNR-35) > 0.5 {
		t.Fatalf("measured %.3f dB outside ±0.5 of 35", d.PSNR)
	}
}

// EncodeFrom must produce byte-identical streams to Encode under the
// same chunk tiling — streaming is invisible in the output. The otc
// case pins the codec-planner path: its ChunkPoints tiling rounds to
// the transform block edge, and both encode paths must agree.
func TestEncodeFromMatchesEncode(t *testing.T) {
	// 40 rows with inner 48×16 give 22-row raw chunks, which otc rounds
	// to 24 — a tiling the generic partition would not produce.
	f := noisyField("stream", 0.05, 40, 48, 16)
	configs := map[string][]fixedpsnr.Option{
		"sz": {
			fixedpsnr.WithMode(fixedpsnr.ModePSNR),
			fixedpsnr.WithTargetPSNR(60),
			fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints),
			fixedpsnr.WithWorkers(2),
		},
		"otc": {
			fixedpsnr.WithMode(fixedpsnr.ModePSNR),
			fixedpsnr.WithTargetPSNR(60),
			fixedpsnr.WithCompressor(fixedpsnr.CompressorTransform),
			fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints),
			fixedpsnr.WithWorkers(2),
		},
	}
	for name, opts := range configs {
		enc := mustEncoder(t, opts...)
		want, wantRes, err := enc.Encode(context.Background(), f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, gotRes, err := enc.EncodeFrom(context.Background(), fixedpsnr.NewFieldReader(f))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: EncodeFrom stream differs from Encode (%d vs %d bytes)", name, len(got), len(want))
		}
		if gotRes.CompressedBytes != wantRes.CompressedBytes || gotRes.NPoints != wantRes.NPoints {
			t.Fatalf("%s: results differ: %+v vs %+v", name, gotRes, wantRes)
		}
		if name == "sz" && math.Abs(gotRes.MSE-wantRes.MSE) > 1e-15 {
			t.Fatalf("%s: MSE differs: %g vs %g", name, gotRes.MSE, wantRes.MSE)
		}
	}
}

// synthReader generates rows on the fly — the out-of-core shape: no
// backing array anywhere.
type synthReader struct {
	dims []int
	pos  int
	n    int
}

func synthValue(i int) float64 { return float64(float32(math.Sin(float64(i) / 37))) }

func (r *synthReader) Spec() (fixedpsnr.FieldSpec, error) {
	return fixedpsnr.FieldSpec{
		Name: "synth", Precision: fixedpsnr.Float64, Dims: r.dims,
		Min: -1, Max: 1, HasRange: true,
	}, nil
}

func (r *synthReader) ReadValues(dst []float64) (int, error) {
	if r.pos >= r.n {
		return 0, io.EOF
	}
	n := len(dst)
	if n > r.n-r.pos {
		n = r.n - r.pos
	}
	for i := 0; i < n; i++ {
		dst[i] = synthValue(r.pos + i)
	}
	r.pos += n
	return n, nil
}

// EncodeFrom's peak allocation must be sublinear in the field, on both
// pipelines: the input is never materialized, the bounded window caps
// live chunk buffers at O(chunk × workers), and otc holds no chunk's
// coefficients past the chunk that made them (holding all of them would
// add the field's size again).
func TestEncodeFromBoundedAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation measurements")
	}
	dims := []int{96, 64, 64} // 393216 points ≈ 3 MiB at float64
	n := dims[0] * dims[1] * dims[2]
	fieldBytes := uint64(n * 8)
	// The scratch pools are sync.Pools, which cache per P and are
	// emptied by GC: on one P with GC paused, the measured call reuses
	// what the warm-up call pooled, so the figure is the streaming
	// window's, not the scheduler's or the collector's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []fixedpsnr.Compressor{fixedpsnr.CompressorSZ, fixedpsnr.CompressorTransform} {
		t.Run(c.String(), func(t *testing.T) {
			enc := mustEncoder(t,
				fixedpsnr.WithMode(fixedpsnr.ModeAbs),
				fixedpsnr.WithErrorBound(1e-3),
				fixedpsnr.WithCompressor(c),
				fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints),
				fixedpsnr.WithCapacity(4096),
				fixedpsnr.WithWorkers(1),
			)
			// Warm the scratch pools so the measurement reflects steady state.
			if _, _, err := enc.EncodeFrom(context.Background(), &synthReader{dims: dims, n: n}); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			gcPercent := debug.SetGCPercent(-1)
			blob, _, err := enc.EncodeFrom(context.Background(), &synthReader{dims: dims, n: n})
			debug.SetGCPercent(gcPercent)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocated := after.TotalAlloc - before.TotalAlloc

			if allocated >= fieldBytes/2 {
				t.Fatalf("EncodeFrom allocated %d bytes for a %d-byte field; the streaming window should be far sublinear",
					allocated, fieldBytes)
			}
			// The stream is real: it decodes back to the synthetic values,
			// within the bound on sz. otc promises no pointwise bound, so
			// its decode must have the field's dims and the PSNR Eq. 7
			// estimates for the bound.
			g, _, err := fixedpsnr.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			if c == fixedpsnr.CompressorTransform {
				orig := fixedpsnr.NewField("synth", fixedpsnr.Float64, dims...)
				for i := range orig.Data {
					orig.Data[i] = synthValue(i)
				}
				if !slices.Equal(g.Dims, dims) {
					t.Fatalf("decoded dims %v, want %v", g.Dims, dims)
				}
				d := fixedpsnr.CompareFields(orig, g)
				if want := fixedpsnr.EstimatePSNR(d.ValueRng, 1e-3); !(d.PSNR >= want-1) {
					t.Fatalf("decoded PSNR %.2f dB, want at least %.2f (Eq. 7 estimate %.2f − 1)", d.PSNR, want-1, want)
				}
				return
			}
			for i := 0; i < n; i += 7919 {
				if math.Abs(g.Data[i]-synthValue(i)) > 1e-3+1e-12 {
					t.Fatalf("value %d off by %g", i, math.Abs(g.Data[i]-synthValue(i)))
				}
			}
		})
	}
}

// EncodeFrom rejects configurations that need the whole field.
func TestEncodeFromValidation(t *testing.T) {
	dims := []int{20, 24, 8}
	mk := func(opts ...fixedpsnr.Option) error {
		enc := mustEncoder(t, opts...)
		n := dims[0] * dims[1] * dims[2]
		_, _, err := enc.EncodeFrom(context.Background(), &synthReader{dims: dims, n: n})
		return err
	}
	if err := mk(fixedpsnr.WithMode(fixedpsnr.ModePWRel), fixedpsnr.WithPWRelBound(1e-3)); err == nil {
		t.Fatal("ModePWRel accepted")
	}
	if err := mk(fixedpsnr.WithMode(fixedpsnr.ModeAbs), fixedpsnr.WithErrorBound(1e-3), fixedpsnr.WithAutoCapacity(true)); err == nil {
		t.Fatal("AutoCapacity accepted")
	}
	// ModePSNR without a declared range must fail.
	enc := mustEncoder(t, fixedpsnr.WithMode(fixedpsnr.ModePSNR), fixedpsnr.WithTargetPSNR(60))
	if _, _, err := enc.EncodeFrom(context.Background(), &noRangeReader{synthReader{dims: dims, n: dims[0] * dims[1] * dims[2]}}); err == nil {
		t.Fatal("ModePSNR without range accepted")
	}
}

type noRangeReader struct{ synthReader }

func (r *noRangeReader) Spec() (fixedpsnr.FieldSpec, error) {
	s, err := r.synthReader.Spec()
	s.HasRange = false
	return s, err
}

// WithChunkPoints below the floor is rejected by validation with a clear
// error; zero stays valid.
func TestChunkPointsValidation(t *testing.T) {
	if _, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModeAbs),
		fixedpsnr.WithErrorBound(1e-3),
		fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints-1),
	); err == nil {
		t.Fatal("ChunkPoints below MinChunkPoints accepted")
	}
	if _, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModeAbs),
		fixedpsnr.WithErrorBound(1e-3),
		fixedpsnr.WithChunkPoints(-5),
	); err == nil {
		t.Fatal("negative ChunkPoints accepted")
	}
	f := fixedpsnr.NewField("v", fixedpsnr.Float32, 4, 4)
	if _, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ChunkPoints: 100}); err == nil {
		t.Fatal("one-shot path accepted bad ChunkPoints")
	}
	if _, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModeAbs),
		fixedpsnr.WithErrorBound(1e-3),
		fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints),
	); err != nil {
		t.Fatalf("minimum ChunkPoints rejected: %v", err)
	}
}

// BenchmarkEncodeFromStreaming tracks the streaming encoder's allocation
// profile (the CI bench job records it in BENCH_pr3.json).
func BenchmarkEncodeFromStreaming(b *testing.B) {
	dims := []int{96, 64, 64}
	n := dims[0] * dims[1] * dims[2]
	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(60),
		fixedpsnr.WithChunkPoints(fixedpsnr.MinChunkPoints),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := enc.EncodeFrom(context.Background(), &synthReader{dims: dims, n: n}); err != nil {
			b.Fatal(err)
		}
	}
}
