package fixedpsnr_test

import (
	"math"
	"os"
	"runtime"
	"testing"

	"fixedpsnr"
	"fixedpsnr/codec"
	icodec "fixedpsnr/internal/codec"
)

// maxFuzzStream caps the whole-stream fuzzers' inputs: every fixture
// seed fits, and one execution stays in the milliseconds.
const maxFuzzStream = 128 << 10

// addFixtureSeeds seeds f with every committed fixture stream, legacy
// and four-lane, with a pointwise-relative stream (no fixture is one; it
// is 69 KB), and with two streams of the store example codec, the one
// registered codec that is neither sz nor otc: a 16 KiB four-chunk
// stream and storeEmptyChunk, through add.
func addFixtureSeeds(f *testing.F, add func(blob []byte)) {
	for _, path := range fixtureStreamPaths(f) {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		add(blob)
	}
	pwrel, _, err := fixedpsnr.Compress(fixtureField("fixture", fixedpsnr.Float32, 64, 64, 16),
		fixedpsnr.Options{Mode: fixedpsnr.ModePWRel, PWRelBound: 1e-2})
	if err != nil {
		f.Fatal(err)
	}
	if len(pwrel) > maxFuzzStream {
		f.Fatalf("pointwise-relative seed is %d bytes, over maxFuzzStream", len(pwrel))
	}
	add(pwrel)
	store, _, err := fixedpsnr.Compress(fixtureField("fixture", fixedpsnr.Float64, 16, 16, 8),
		fixedpsnr.Options{Mode: fixedpsnr.ModeAbs, ErrorBound: 1e-3, Codec: "store", ChunkRows: 4})
	if err != nil {
		f.Fatal(err)
	}
	add(store)
	add(storeEmptyChunk())
}

// storeEmptyChunk is a 75-byte store stream whose one chunk declares an
// empty payload for a 16×16 field — a header any writer can forge.
func storeEmptyChunk() []byte {
	h := codec.Header{
		Codec: storeID, Precision: codec.Float64, Name: "x", Dims: []int{16, 16},
		TargetPSNR: math.NaN(), Capacity: 4, Chunks: []codec.ChunkInfo{{Rows: 16, Len: 0}},
	}
	return h.Marshal()
}

// TestStoreEmptyChunkRejected: a chunk payload too short for its chunk
// is an error from the full and the region decode, never a panic.
func TestStoreEmptyChunkRejected(t *testing.T) {
	blob := storeEmptyChunk()
	if len(blob) != 75 {
		t.Fatalf("stream is %d bytes, want 75", len(blob))
	}
	if _, _, err := fixedpsnr.Decompress(blob); err == nil {
		t.Fatal("Decompress accepted an empty store chunk")
	}
	if _, _, err := fixedpsnr.DecompressRegion(blob, []int{2, 3}, []int{4, 5}); err == nil {
		t.Fatal("DecompressRegion accepted an empty store chunk")
	}
}

// constantOverCap is a 26-byte constant stream declaring 2^46 points.
// A constant stream has no payload to bound its declared size against.
func constantOverCap() []byte {
	h := icodec.Header{
		Codec: icodec.IDConstant, Precision: codec.Float32, Dims: []int{1 << 23, 1 << 23},
		TargetPSNR: math.NaN(), ConstValue: 1,
	}
	return h.Marshal()
}

// TestConstantStreamOverCapRejected: a constant stream declaring more
// than the decode cap's points is an error from the full and the region
// decode, never a panic or an allocation of its declared size.
func TestConstantStreamOverCapRejected(t *testing.T) {
	blob := constantOverCap()
	if len(blob) != 26 {
		t.Fatalf("stream is %d bytes, want 26", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fixedpsnr.Decompress(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Decompress accepted a 2^46-point constant stream")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Decompress allocated %d bytes before failing, want under 1 MiB", got)
	}
	if _, _, err := fixedpsnr.DecompressRegion(blob, []int{0, 0}, []int{1 << 23, 1 << 9}); err == nil {
		t.Fatal("DecompressRegion accepted a 2^32-point region")
	}
}

// FuzzDecompress feeds arbitrary bytes through Decompress end to end:
// header, chunk table, payload dispatch, entropy decode and
// reconstruction. Every input must return an error or a field, never
// panic. The fixture seeds are 33–73 KB, so bound minimization when
// fuzzing (-fuzzminimizetime 1s); the last seed is constantOverCap.
func FuzzDecompress(f *testing.F) {
	addFixtureSeeds(f, func(blob []byte) { f.Add(blob) })
	f.Add(constantOverCap())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzStream {
			data = data[:maxFuzzStream]
		}
		fixedpsnr.Decompress(data)
	})
}

// FuzzDecodeRegion feeds arbitrary bytes and a fuzzer-chosen region —
// rank%4 axes of off/ext, negative and oversized values included —
// through DecompressRegion. Every input must return an error or a
// field, never panic.
func FuzzDecodeRegion(f *testing.F) {
	addFixtureSeeds(f, func(blob []byte) {
		f.Add(blob, uint8(3), int32(9), int32(5), int32(2), int32(33), int32(50), int32(11))
	})
	f.Fuzz(func(t *testing.T, data []byte, rank uint8, o0, o1, o2, e0, e1, e2 int32) {
		if len(data) > maxFuzzStream {
			data = data[:maxFuzzStream]
		}
		n := int(rank % 4)
		off := []int{int(o0), int(o1), int(o2)}[:n]
		ext := []int{int(e0), int(e1), int(e2)}[:n]
		fixedpsnr.DecompressRegion(data, off, ext)
	})
}
