package huffman

import (
	"fmt"
	"math/rand"
	"testing"
)

// quantCodes builds a realistic SZ code stream: Laplacian-ish codes around
// the interval radius with occasional unpredictable markers.
func quantCodes(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	radius := 32768
	syms := make([]int32, n)
	for i := range syms {
		mag := int(rng.ExpFloat64() * 2)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		c := radius + mag
		if c < 1 {
			c = 1
		}
		if c > 2*radius-1 {
			c = 2*radius - 1
		}
		if rng.Intn(1000) == 0 {
			c = 0
		}
		syms[i] = int32(c)
	}
	return syms
}

// BenchmarkEncode times EncodeLanes4 on quantization codes at the
// default capacity (maxSym 65535), on one warm scratch: a 2^20-symbol
// block, and a 2^14-symbol block, a small chunk's, where the table build
// is the larger share.
func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{1 << 20, 1 << 14} {
		b.Run(fmt.Sprintf("syms=%d", n), func(b *testing.B) {
			syms := quantCodes(n, 1)
			sc := NewScratch()
			var dst []byte
			b.SetBytes(int64(len(syms)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, err = EncodeLanes4(dst[:0], syms, 1<<16-1, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode times DecodeLanes4Into on 2^20 quantization codes,
// into one warm scratch and output slice, as a chunk decoder runs it.
func BenchmarkDecode(b *testing.B) {
	syms := quantCodes(1<<20, 2)
	enc, err := EncodeLanes4(nil, syms, 1<<16-1, nil)
	if err != nil {
		b.Fatal(err)
	}
	ds := NewDecodeScratch()
	dst := make([]int32, 0, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, _, err = DecodeLanes4Into(dst, enc, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// wideCodes builds a wide two-sided geometric code stream around the
// interval radius: magnitudes are exponential with mean 600, the shape of
// quantization codes at the 90 dB end of the fixed-PSNR range, where a
// fifth of the codes are longer than 11 bits. On 1<<20 symbols
// 21% of the codes exceed tableBits and the longest are 21 bits
// (TestWideCorpusShape pins at least 15% and 20 bits).
func wideCodes(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	radius := 32768
	syms := make([]int32, n)
	for i := range syms {
		mag := int(rng.ExpFloat64() * 600)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		syms[i] = int32(min(max(radius+mag, 0), 2*radius-1))
	}
	return syms
}

func BenchmarkEncodeWide(b *testing.B) {
	syms := wideCodes(1<<20, 1)
	sc := NewScratch()
	var dst []byte
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = EncodeLanes4(dst[:0], syms, 1<<16-1, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeWide(b *testing.B) {
	syms := wideCodes(1<<20, 2)
	enc, err := EncodeLanes4(nil, syms, 1<<16-1, nil)
	if err != nil {
		b.Fatal(err)
	}
	ds := NewDecodeScratch()
	dst := make([]int32, 0, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, _, err = DecodeLanes4Into(dst, enc, ds); err != nil {
			b.Fatal(err)
		}
	}
}
