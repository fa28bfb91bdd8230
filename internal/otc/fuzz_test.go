package otc

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/quantizer"
)

// oversizedBlockPayload is a well-formed payload for a 100-point line of
// zero coefficients whose prefix declares a 2048-point block edge, past
// codec.MaxBlockSize.
func oversizedBlockPayload(tb testing.TB) []byte {
	tb.Helper()
	codes := make([]int32, 100)
	for i := range codes {
		codes[i] = quantizer.DefaultCapacity / 2
	}
	prefix := binary.AppendUvarint([]byte{byte(TransformDCT)}, 2048)
	var sc *codec.Scratch
	payload, err := sc.AppendPayload(nil, prefix, codes, quantizer.DefaultCapacity-1, nil, field.Float64)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// chunkHeader returns a one-chunk otc stream header over dims.
func chunkHeader(tb testing.TB, dims []int) *codec.Header {
	tb.Helper()
	h := &codec.Header{
		Codec:      codec.IDOTC,
		Precision:  field.Float32,
		Mode:       codec.ModePSNR,
		Name:       "fuzz",
		Dims:       dims,
		EbAbs:      1e-3,
		TargetPSNR: 60,
		ValueRange: 2,
		Capacity:   quantizer.DefaultCapacity,
		Chunks:     []codec.ChunkInfo{{Rows: dims[0], MSE: math.NaN(), Min: -1, Max: 1}},
	}
	parsed, err := codec.ParseHeader(h.Marshal())
	if err != nil {
		tb.Fatal(err)
	}
	return parsed
}

// A payload that declares a block edge above codec.MaxBlockSize must be
// rejected: the block loop sizes its buffers from the edge.
func TestDecompressRejectsOversizedBlockPrefix(t *testing.T) {
	h := chunkHeader(t, []int{100})
	blob, err := codec.AssembleStream(h, [][]byte{oversizedBlockPayload(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(blob); err == nil {
		t.Fatal("Decompress accepted a payload declaring block size 2048")
	}
}

// Every encode entry point rejects a block edge above codec.MaxBlockSize;
// the edge below it still round-trips.
func TestBlockSizeAboveMaxRejected(t *testing.T) {
	f := smoothField("big", 0.01, 3, 100)
	opt := Options{ErrorBound: 1e-3, BlockSize: codec.MaxBlockSize + 1, Workers: 1}
	if _, _, err := Compress(f, opt); err == nil {
		t.Fatalf("Compress accepted block size %d", opt.BlockSize)
	}
	if _, _, err := (otcCodec{}).CompressChunk(context.Background(), f.Data, f.Dims, f.Precision, opt, nil); err == nil {
		t.Fatalf("CompressChunk accepted block size %d", opt.BlockSize)
	}
	opt.BlockSize = codec.MaxBlockSize
	roundTrip(t, f, opt)
}

// fuzzDims maps fuzzer bytes to chunk dims of rank 1-3 with every axis in
// [1, 4096], or nil when the chunk would exceed 4096 points.
func fuzzDims(rank uint8, d0, d1, d2 uint16) []int {
	dims := []int{1 + int(d0)%4096, 1 + int(d1)%4096, 1 + int(d2)%4096}[:1+int(rank)%3]
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n > 4096 {
		return nil
	}
	return dims
}

// FuzzOTCChunkDecode feeds arbitrary payload bytes through the transform
// pipeline's chunk decoder over fuzzer-chosen chunk dims. Every input
// must come back as an error or a reconstruction, never a panic. Seeds
// are the chunk payloads of the committed transform fixtures (8-20 KB:
// bound minimization with -fuzzminimizetime), small payloads that decode
// cleanly for several ranks, edges and both transforms, and a payload
// declaring an oversized block edge.
func FuzzOTCChunkDecode(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata", "streams")
	for _, name := range []string{
		"otc_psnr.fpsz", "lanes4/otc_psnr.fpsz", "lanes4/otc_ratio.fpsz",
		"lanes4/otc_bs6.fpsz", "lanes4/wavelet_psnr.fpsz",
	} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		h, err := codec.ParseHeader(blob)
		if err != nil {
			f.Fatal(err)
		}
		for ci := range h.Chunks {
			payload, err := codec.ChunkPayload(blob, h, ci)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload, uint8(2), uint16(15), uint16(15), uint16(15))
		}
	}
	for _, c := range []struct {
		dims []int
		bs   int
		tr   Transform
	}{
		{[]int{7, 9, 5}, 4, TransformDCT},
		{[]int{33, 20}, 8, TransformHaar},
		{[]int{1000}, 64, TransformDCT},
		{[]int{16, 16, 16}, 16, TransformHaar},
	} {
		src := smoothField("seed", 0.01, c.dims...)
		opt := Options{ErrorBound: 1e-3, BlockSize: c.bs, Transform: c.tr, Workers: 1}
		payload, _, err := (otcCodec{}).CompressChunk(context.Background(), src.Data, c.dims, src.Precision, opt, nil)
		if err != nil {
			f.Fatal(err)
		}
		d := append(c.dims[1:len(c.dims):len(c.dims)], 1, 1)
		f.Add(payload, uint8(len(c.dims)-1), uint16(c.dims[0]-1), uint16(d[0]-1), uint16(d[1]-1))
	}
	f.Add(oversizedBlockPayload(f), uint8(0), uint16(99), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, payload []byte, rank uint8, d0, d1, d2 uint16) {
		dims := fuzzDims(rank, d0, d1, d2)
		if dims == nil {
			return
		}
		h := chunkHeader(t, dims)
		dst := make([]float64, h.ChunkPoints(0))
		(otcCodec{}).DecompressChunk(payload, h, 0, dst, codec.NewScratch()) // error or success; never a panic
	})
}

// fuzzValues fills n block values from seed, mixing ±0, subnormals,
// magnitudes near the float64 limit and normal values across twenty
// decades.
func fuzzValues(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		var v float64
		switch rng.Intn(8) {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
		case 3:
			v = math.MaxFloat64 * (0.5 + rng.Float64()/2)
		default:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		vals[i] = v
	}
	return vals
}

// sameBits reports whether a and b are the same float64, bit for bit;
// any two NaNs match, since NaN payloads are not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzBlockTransform checks the axis-kernel block transform bit for bit
// against the line-gather reference (refApplyBlock) over ranks 1-3,
// every edge from 1 to codec.MaxBlockSize per axis (partial blocks
// included), DCT and Haar, forward and inverse.
func FuzzBlockTransform(f *testing.F) {
	f.Add(uint8(2), uint8(7), uint8(7), uint8(7), false, false, int64(1))
	f.Add(uint8(2), uint8(3), uint8(5), uint8(1), true, true, int64(2))
	f.Add(uint8(1), uint8(63), uint8(0), uint8(0), true, false, int64(3))
	f.Add(uint8(0), uint8(11), uint8(0), uint8(0), false, true, int64(4))
	f.Add(uint8(2), uint8(15), uint8(6), uint8(31), false, false, int64(5))
	f.Fuzz(func(t *testing.T, rank, e0, e1, e2 uint8, haar, inverse bool, seed int64) {
		sizes := []int{1 + int(e0)%codec.MaxBlockSize, 1 + int(e1)%codec.MaxBlockSize, 1 + int(e2)%codec.MaxBlockSize}[:1+int(rank)%3]
		n := 1
		for _, s := range sizes {
			n *= s
		}
		tr := TransformDCT
		if haar {
			tr = TransformHaar
		}
		want := fuzzValues(n, seed)
		cur := append([]float64(nil), want...)
		if err := refApplyBlock(want, sizes, tr, inverse); err != nil {
			t.Fatal(err)
		}
		got, err := applyBlock(cur, make([]float64, n), sizes, tr, inverse)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%v sizes %v inverse=%v: point %d = %x, reference %x",
					tr, sizes, inverse, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}
