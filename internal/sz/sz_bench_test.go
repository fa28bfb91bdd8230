package sz

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/quantizer"
)

func benchField3D(b *testing.B) *field.Field {
	b.Helper()
	f := field.New("bench3d", field.Float64, 32, 64, 64)
	rng := rand.New(rand.NewSource(1))
	idx := 0
	for i := 0; i < 32; i++ {
		for j := 0; j < 64; j++ {
			for k := 0; k < 64; k++ {
				f.Data[idx] = math.Sin(float64(i)/4)*math.Cos(float64(j)/9)*math.Sin(float64(k)/7) +
					0.02*rng.NormFloat64()
				idx++
			}
		}
	}
	return f
}

func BenchmarkCompressCore3D(b *testing.B) {
	f := benchField3D(b)
	q, err := quantizer.New(1e-4, quantizer.DefaultCapacity)
	if err != nil {
		b.Fatal(err)
	}
	codes := make([]int32, f.Len())
	recon := make([]float64, f.Len())
	b.SetBytes(int64(f.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compressCore(f.Data, f.Dims, q, codes, recon)
	}
}

func BenchmarkDecompressCore3D(b *testing.B) {
	f := benchField3D(b)
	q, _ := quantizer.New(1e-4, quantizer.DefaultCapacity)
	codes := make([]int32, f.Len())
	recon := make([]float64, f.Len())
	literals, _ := compressCore(f.Data, f.Dims, q, codes, recon)
	out := make([]float64, f.Len())
	b.SetBytes(int64(f.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decompressCore(out, codes, literals, f.Dims, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullCompress3D(b *testing.B) {
	f := benchField3D(b)
	b.SetBytes(int64(f.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compress(f, Options{ErrorBound: 1e-4, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullDecompress3D(b *testing.B) {
	f := benchField3D(b)
	blob, _, err := compress(f, Options{ErrorBound: 1e-4, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateCapacity(b *testing.B) {
	f := benchField3D(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimateCapacity(f.Data, f.Dims, 1e-4)
	}
}

func BenchmarkCompressPWRel(b *testing.B) {
	f := benchField3D(b)
	for i := range f.Data {
		f.Data[i] = math.Exp(f.Data[i])
	}
	b.SetBytes(int64(f.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (szCodec{}).CompressPWRel(context.Background(), f, 1e-3, Options{Workers: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
