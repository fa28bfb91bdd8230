package huffman

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"fixedpsnr/internal/bitstream"
	"fixedpsnr/internal/kernels"
)

// laneCorpora sweeps the shapes the four-lane format cares about: every
// tail length mod 4 (and mod 8, the emit's pair stride), the skewed and
// quantization-code streams the single-stream tests use, and the wide
// corpus whose codes run past the decode table.
func laneCorpora(tb testing.TB) [][]int32 {
	corpora := [][]int32{{}}
	for n := 1; n <= 19; n++ {
		syms := make([]int32, n)
		for i := range syms {
			syms[i] = int32(i%5) * 7
		}
		corpora = append(corpora, syms)
	}
	corpora = append(corpora,
		[]int32{0, 65535, 32768, 1, 65535, 0},
		quantCodes(4096, 3),
		quantCodes(1021, 9), // 1 mod 4 with a wide alphabet
	)
	for depth := tableBits - 1; depth <= tableBits+1; depth++ {
		syms, _ := skewedStream(tb, depth)
		corpora = append(corpora, syms)
	}
	return append(corpora, wideCorpora()...)
}

func maxSymOf(syms []int32) int {
	m := int32(0)
	for _, s := range syms {
		if s > m {
			m = s
		}
	}
	return int(m)
}

// TestEncodeLanes4MatchesSplitReference pins the contract in
// EncodeLanes4's comment: the fused emit is byte-identical to staging a
// kernels.LaneSplit4 scatter and emitting each lane slice with emitSyms.
func TestEncodeLanes4MatchesSplitReference(t *testing.T) {
	sc := NewScratch()
	for i, syms := range laneCorpora(t) {
		maxSym := maxSymOf(syms)
		got, err := EncodeLanes4(nil, syms, maxSym, sc)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}

		ref, lenOf, codes, _, err := buildTable(nil, syms, maxSym, NewScratch())
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		c0, c1, c2, c3 := kernels.LaneLens4(len(syms))
		lanes := [4][]int32{
			make([]int32, c0), make([]int32, c1),
			make([]int32, c2), make([]int32, c3),
		}
		kernels.LaneSplit4(lanes[0], lanes[1], lanes[2], lanes[3], syms)
		var bodies [4][]byte
		for lane, ls := range lanes {
			w := bitstream.NewWriter(len(ls))
			emitSyms(w, ls, lenOf, codes)
			bodies[lane] = w.Bytes()
		}
		for _, body := range bodies {
			ref = binary.AppendUvarint(ref, uint64(len(body)))
		}
		for _, body := range bodies {
			ref = append(ref, body...)
		}

		if !bytes.Equal(got, ref) {
			t.Fatalf("corpus %d (n=%d): fused encode (%d bytes) differs from LaneSplit4+emitSyms reference (%d bytes)",
				i, len(syms), len(got), len(ref))
		}
	}
}

// TestLanes4RoundTrip drives encode→decode over the corpus shapes,
// checks consumed covers exactly the encoding, and confirms trailing
// bytes are left alone — the embedding contract the chunk payloads rely
// on.
func TestLanes4RoundTrip(t *testing.T) {
	sc := NewScratch()
	ds := NewDecodeScratch()
	var dst []int32
	for i, syms := range laneCorpora(t) {
		enc, err := EncodeLanes4(nil, syms, maxSymOf(syms), sc)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		withTrailer := append(append([]byte{}, enc...), 0xAA, 0xBB)
		got, consumed, err := DecodeLanes4Into(dst, withTrailer, ds)
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if consumed != len(enc) {
			t.Fatalf("corpus %d: consumed %d of %d bytes", i, consumed, len(enc))
		}
		if !slices.Equal(got, syms) {
			t.Fatalf("corpus %d (n=%d): round trip mismatch", i, len(syms))
		}
		dst = got
	}
}

// TestDecodeLanes4RejectsTruncated mirrors the single-stream truncation
// test: no strict prefix of a lane encoding may decode to the full
// input while claiming to have consumed the whole prefix.
func TestDecodeLanes4RejectsTruncated(t *testing.T) {
	syms := quantCodes(257, 5)
	enc, err := EncodeLanes4(nil, syms, maxSymOf(syms), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDecodeScratch()
	for cut := 0; cut < len(enc); cut++ {
		dec, consumed, err := DecodeLanes4Into(nil, enc[:cut], ds)
		if err == nil && consumed == cut && slices.Equal(dec, syms) {
			t.Fatalf("truncated stream (cut=%d) decoded to the full input", cut)
		}
	}
}

// TestDecodeScratchTableCache exercises the prepareTables cache across
// one scratch: repeating a stream must reuse the cached tables (the key
// stays put), switching streams must rebuild, and every decode must
// stay correct through the alternation — including after a failed parse
// in between.
func TestDecodeScratchTableCache(t *testing.T) {
	symsA := quantCodes(2048, 3)
	symsB, _ := skewedStream(t, tableBits+1) // different alphabet and depths
	encA, err := EncodeLanes4(nil, symsA, maxSymOf(symsA), nil)
	if err != nil {
		t.Fatal(err)
	}
	encB, err := EncodeLanes4(nil, symsB, maxSymOf(symsB), nil)
	if err != nil {
		t.Fatal(err)
	}

	ds := NewDecodeScratch()
	decode := func(enc []byte, want []int32) {
		t.Helper()
		got, _, err := DecodeLanes4Into(nil, enc, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatal("decode through shared scratch diverges")
		}
		if !ds.tblValid {
			t.Fatal("decode left the table cache invalid")
		}
	}

	decode(encA, symsA)
	keyA := ds.tblKey
	decode(encA, symsA) // same table: must hit the cache
	if ds.tblKey != keyA {
		t.Fatalf("repeat decode changed the cache key: %#x vs %#x", ds.tblKey, keyA)
	}
	decode(encB, symsB) // different table: must rebuild
	if ds.tblKey == keyA {
		t.Fatal("distinct canonical tables hashed to one cache key")
	}
	if _, _, err := DecodeLanes4Into(nil, encA[:3], ds); err == nil {
		t.Fatal("expected error for truncated header")
	}
	decode(encA, symsA) // back to A, after an error in between
	if ds.tblKey != keyA {
		t.Fatalf("cache key for A not reproducible: %#x vs %#x", ds.tblKey, keyA)
	}
}

// FuzzDecodeLanes4Differential is the lane-format analog of
// FuzzDecodeScratchDifferential: fuzzer bytes are first fed straight to
// DecodeLanes4Into (which must reject garbage without panicking), then
// reinterpreted as a symbol stream that is encoded both ways — four-lane
// and single-stream — and decoded by the matching decoders, which must
// agree with each other and with the input. Symbols are single bytes
// and the input is size-capped so one execution stays in the tens of
// microseconds — the engine's minimizer re-executes inputs O(n²) times,
// so a milliseconds-per-exec body (say, a 65536-symbol alphabet
// rebuilding every table) stalls fuzzing entirely. The wide-alphabet
// shapes stay covered by the deterministic corpus tests above.
func FuzzDecodeLanes4Differential(f *testing.F) {
	seedSyms := [][]int32{{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	for depth := tableBits - 1; depth <= tableBits+1; depth++ {
		syms, _ := skewedStream(f, depth)
		seedSyms = append(seedSyms, syms)
	}
	for _, syms := range seedSyms {
		if enc, err := EncodeLanes4(nil, syms, maxSymOf(syms), nil); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	f.Add([]byte{0x07, 0x01, 4})
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Fresh decode scratches every run: the prepareTables cache keys
		// on the previous stream, so a shared scratch would make coverage
		// depend on execution order and confuse the minimizer.
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		// Arbitrary bytes: may decode or error, must never panic.
		DecodeLanes4Into(nil, raw, NewDecodeScratch())

		syms := make([]int32, len(raw))
		for i, b := range raw {
			syms[i] = int32(b)
		}
		// Byte symbols lie in [0, 255] by construction — the same kind
		// of known bound the pipelines pass.
		lane, err := EncodeLanes4(nil, syms, 255, sc)
		if err != nil {
			t.Fatalf("EncodeLanes4: %v", err)
		}
		single, err := encodeSingle(syms)
		if err != nil {
			t.Fatalf("encodeSingle: %v", err)
		}
		got, consumed, err := DecodeLanes4Into(nil, lane, NewDecodeScratch())
		if err != nil {
			t.Fatalf("DecodeLanes4Into: %v", err)
		}
		if consumed != len(lane) {
			t.Fatalf("lane decode consumed %d of %d bytes", consumed, len(lane))
		}
		want, _, err := DecodeInto(nil, single, NewDecodeScratch())
		if err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
		if !slices.Equal(got, want) || !slices.Equal(got, syms) {
			t.Fatalf("lane decode diverges: %d symbols in, lane %d, single %d", len(syms), len(got), len(want))
		}
	})
}
