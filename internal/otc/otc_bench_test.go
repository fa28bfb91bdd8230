package otc

import (
	"context"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

// benchChunk is one 16×128×128 slab, 512 blocks of 8³, at a mid-range
// bound: the chunk shape fixed-ratio steering re-encodes on every pass.
func benchChunk(b *testing.B, tr Transform) ([]float64, []int, Options) {
	b.Helper()
	f := smoothField("bench", 0.01, 16, 128, 128)
	return f.Data, f.Dims, Options{ErrorBound: 1e-3, Transform: tr, Workers: 1}
}

func BenchmarkCompressChunk(b *testing.B) {
	for _, tc := range []struct {
		name string
		tr   Transform
	}{{"dct", TransformDCT}, {"haar", TransformHaar}} {
		b.Run(tc.name, func(b *testing.B) {
			data, dims, opt := benchChunk(b, tc.tr)
			sc := codec.NewScratch()
			b.SetBytes(int64(8 * len(data)))
			for b.Loop() {
				if _, _, err := (otcCodec{}).CompressChunk(context.Background(), data, dims, field.Float64, opt, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecompressChunk(b *testing.B) {
	for _, tc := range []struct {
		name string
		tr   Transform
	}{{"dct", TransformDCT}, {"haar", TransformHaar}} {
		b.Run(tc.name, func(b *testing.B) {
			data, dims, opt := benchChunk(b, tc.tr)
			f := field.New("bench", field.Float64, dims...)
			copy(f.Data, data)
			blob, _, err := Compress(f, opt)
			if err != nil {
				b.Fatal(err)
			}
			h, err := codec.ParseHeader(blob)
			if err != nil {
				b.Fatal(err)
			}
			payload, err := codec.ChunkPayload(blob, h, 0)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, len(data))
			sc := codec.NewScratch()
			b.SetBytes(int64(8 * len(data)))
			for b.Loop() {
				if err := (otcCodec{}).DecompressChunk(payload, h, 0, dst, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
