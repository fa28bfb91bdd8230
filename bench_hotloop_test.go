package fixedpsnr_test

// Hot-loop throughput benchmarks: encode and decode MB/s on the chunkbench
// field at 1 core and all cores. These are the datapoints the CI bench job
// folds into BENCH_pr*.json via `fpsz-bench gobench`, so single-thread
// bandwidth and core scaling are both tracked across PRs.
//
// The field is the same synthetic used by `fpsz-bench chunk` (separable
// trigonometric modes plus a high-frequency perturbation), at a reduced
// 128×192×192 so benchmark iterations stay affordable; MB/s numbers are
// directly comparable across runs of the same grid. That field is in band
// on the first pass at every PSNR target, so the steering path has its
// own benchmark over the sparse fields of a Hurricane snapshot.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"fixedpsnr"
	"fixedpsnr/internal/datagen"
)

var (
	hotFieldOnce sync.Once
	hotField     *fixedpsnr.Field
)

// chunkBenchField materializes the benchmark field (value range ⊂ [-2, 2]).
func chunkBenchField() *fixedpsnr.Field {
	hotFieldOnce.Do(func() {
		dims := []int{128, 192, 192}
		f := fixedpsnr.NewField("chunkbench", fixedpsnr.Float32, dims...)
		datagen.ChunkBench(f.Data, 0, dims)
		hotField = f
	})
	return hotField
}

// withCores pins both the scheduler (GOMAXPROCS, which bounds the decode
// path's worker pool) and reports the bound so MB/s is per-configuration.
func withCores(b *testing.B, cores int) {
	b.Helper()
	prev := runtime.GOMAXPROCS(cores)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func benchmarkChunkedEncode(b *testing.B, cores int) {
	f := chunkBenchField()
	withCores(b, cores)
	enc, err := fixedpsnr.NewEncoder(
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(80),
		fixedpsnr.WithWorkers(cores),
	)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := enc.Encode(ctx, f); err != nil { // warm pools + solver
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := enc.Encode(ctx, f); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkChunkedDecode(b *testing.B, cores int) {
	f := chunkBenchField()
	stream, _, err := fixedpsnr.Compress(f, fixedpsnr.Options{
		Mode: fixedpsnr.ModePSNR, TargetPSNR: 80,
	})
	if err != nil {
		b.Fatal(err)
	}
	withCores(b, cores)
	dec := fixedpsnr.NewDecoder()
	ctx := context.Background()
	if _, _, err := dec.Decode(ctx, stream); err != nil { // warm pools
		b.Fatal(err)
	}
	b.SetBytes(int64(f.SizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(ctx, stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkedEncode1Core(b *testing.B)    { benchmarkChunkedEncode(b, 1) }
func BenchmarkChunkedEncodeAllCores(b *testing.B) { benchmarkChunkedEncode(b, runtime.NumCPU()) }
func BenchmarkChunkedDecode1Core(b *testing.B)    { benchmarkChunkedDecode(b, 1) }
func BenchmarkChunkedDecodeAllCores(b *testing.B) { benchmarkChunkedDecode(b, runtime.NumCPU()) }

// BenchmarkCalibratedEncode1Core times the steering path on one core: a
// calibrated 30 dB encode of each of the 13 fields of the 16×64×64
// Hurricane snapshot the container digests pin, with the warm start off
// so every iteration steers from the Eq. 8 bound. Its sparse fields take
// up to 4 passes.
func BenchmarkCalibratedEncode1Core(b *testing.B) {
	benchmarkSteeredEncode1Core(b,
		fixedpsnr.WithMode(fixedpsnr.ModePSNR),
		fixedpsnr.WithTargetPSNR(30),
		fixedpsnr.WithCalibrated(true),
	)
}

// BenchmarkRatioSteerEncode1Core times fixed-ratio steering of the
// transform pipeline on one core: R = 16 on otc (DCT) over the same 13
// fields, with the warm start off. Each chunk is transformed on its
// first pass only and re-quantized on the others, so this is where the
// cost of a later pass shows; BenchmarkCompressChunk runs one pass per
// chunk and cannot.
func BenchmarkRatioSteerEncode1Core(b *testing.B) {
	benchmarkSteeredEncode1Core(b,
		fixedpsnr.WithMode(fixedpsnr.ModeRatio),
		fixedpsnr.WithTargetRatio(16),
		fixedpsnr.WithCompressor(fixedpsnr.CompressorTransform),
	)
}

// benchmarkSteeredEncode1Core encodes every field of the 16×64×64
// Hurricane snapshot per iteration through one single-worker Encoder
// with the warm start off, reports the mean passes per field, and fails
// below 2, where it would stop timing multi-pass steering.
func benchmarkSteeredEncode1Core(b *testing.B, opts ...fixedpsnr.Option) {
	specs := datagen.Hurricane(nil).Specs
	fields := make([]*fixedpsnr.Field, len(specs))
	size := 0
	for i, spec := range specs {
		fields[i] = hurricaneField(spec.Name, fixedpsnr.Float32, 0)()
		size += fields[i].SizeBytes()
	}
	withCores(b, 1)
	enc, err := fixedpsnr.NewEncoder(append(opts, fixedpsnr.WithWarmStart(false), fixedpsnr.WithWorkers(1))...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	encodeAll := func() (passes int) {
		for _, f := range fields {
			_, res, err := enc.Encode(ctx, f)
			if err != nil {
				b.Fatal(err)
			}
			passes += res.Passes
		}
		return passes
	}
	encodeAll() // warm pools
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	passes := 0
	for i := 0; i < b.N; i++ {
		passes += encodeAll()
	}
	b.StopTimer()
	mean := float64(passes) / float64(b.N*len(fields))
	b.ReportMetric(mean, "passes/field")
	if mean < 2 {
		b.Fatalf("%.2f passes per field; the benchmark needs at least 2 to time steering", mean)
	}
}
