package huffman

import (
	"slices"
	"testing"
)

// skewedStream encodes a Fibonacci-weighted alphabet 0..depth, whose
// Huffman tree degenerates to a chain: the canonical code has lengths
// 1..depth. depth = tableBits exercises the last all-table code length;
// depth = tableBits+1 forces the canonical-walk fallback.
func skewedStream(tb testing.TB, depth int) ([]int32, []byte) {
	var syms []int32
	a, b := 1, 1
	for s := 0; s <= depth; s++ {
		for j := 0; j < a; j++ {
			syms = append(syms, int32(s))
		}
		a, b = b, a+b
	}
	enc, err := encodeSingle(syms)
	if err != nil {
		tb.Fatal(err)
	}
	return syms, enc
}

// TestSkewedDepthReachesFallback pins the premise of the boundary tests:
// the Fibonacci stream really does produce codes of the requested depth,
// so depth tableBits+1 exercises the lookup-table fallback.
func TestSkewedDepthReachesFallback(t *testing.T) {
	for _, depth := range []int{tableBits, tableBits + 1} {
		syms, enc := skewedStream(t, depth)
		ds := NewDecodeScratch()
		got, _, err := DecodeInto(nil, enc, ds)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if !slices.Equal(got, syms) {
			t.Fatalf("depth %d: round trip mismatch", depth)
		}
		maxLen := uint8(0)
		for _, l := range ds.lens {
			if l > maxLen {
				maxLen = l
			}
		}
		if int(maxLen) != depth {
			t.Fatalf("depth %d: max code length %d", depth, maxLen)
		}
	}
}

// TestDecodeIntoMatchesDecode compares the scratch-backed path against the
// allocating path on every corpus the round-trip tests use, including
// reuse of one scratch across differently-shaped streams.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	ds := NewDecodeScratch()
	var dst []int32
	corpora := [][]int32{
		{},
		{7},
		{5, 5, 5, 5, 5},
		{1, 2, 1, 2, 2, 2, 1},
		{0, 65535, 32768, 1, 65535, 0},
		quantCodes(4096, 3),
	}
	for depth := tableBits - 1; depth <= tableBits+2; depth++ {
		syms, _ := skewedStream(t, depth)
		corpora = append(corpora, syms)
	}
	for i, syms := range corpora {
		enc, err := encodeSingle(syms)
		if err != nil {
			t.Fatal(err)
		}
		want, wantN, err := DecodeInto(nil, enc, nil)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		got, gotN, err := DecodeInto(dst, enc, ds)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("corpus %d: scratch decode diverges", i)
		}
		dst = got
	}
}

// TestDecodeIntoNoAllocs is the regression gate for the decode-scratch
// plumbing: a warmed scratch plus a reused destination slice must decode
// without touching the heap.
func TestDecodeIntoNoAllocs(t *testing.T) {
	_, enc := skewedStream(t, tableBits+1) // include the fallback path
	ds := NewDecodeScratch()
	dst, _, err := DecodeInto(nil, enc, ds)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, _, err = DecodeInto(dst, enc, ds)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reused decode allocates %.1f times per run, want 0", allocs)
	}
}

// FuzzDecodeScratchDifferential feeds arbitrary bytes to both decode
// paths: they must agree on success/failure and on every decoded symbol.
// The seed corpus includes canonical streams whose longest codes sit at
// tableBits and tableBits+1 — the lookup-table/fallback boundary.
func FuzzDecodeScratchDifferential(f *testing.F) {
	for depth := tableBits - 1; depth <= tableBits+1; depth++ {
		var syms []int32
		a, b := 1, 1
		for s := 0; s <= depth; s++ {
			for j := 0; j < a; j++ {
				syms = append(syms, int32(s))
			}
			a, b = b, a+b
		}
		if enc, err := encodeSingle(syms); err == nil {
			f.Add(enc)
		}
	}
	if enc, err := encodeSingle(quantCodes(512, 9)); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	ds := NewDecodeScratch()
	var dst []int32
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := DecodeInto(nil, data, nil)
		got, gotN, gotErr := DecodeInto(dst, data, ds)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: fresh %v, scratch %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if gotN != wantN || !slices.Equal(got, want) {
			t.Fatalf("decode divergence: fresh (%d syms, %d consumed), scratch (%d syms, %d consumed)",
				len(want), wantN, len(got), gotN)
		}
		dst = got
	})
}

func BenchmarkDecodeScratch(b *testing.B) {
	syms := quantCodes(1<<20, 2)
	enc, err := encodeSingle(syms)
	if err != nil {
		b.Fatal(err)
	}
	ds := NewDecodeScratch()
	dst := make([]int32, 0, len(syms))
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = DecodeInto(dst, enc, ds)
		if err != nil {
			b.Fatal(err)
		}
	}
}
