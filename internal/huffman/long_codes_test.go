package huffman

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"testing"

	"fixedpsnr/internal/bitstream"
)

// wideCorpora returns wideCodes streams of 1<<14 + r symbols for r =
// 0..15, so the length takes every residue mod 16 — the block loop's
// block size — and every 1–3-symbol tail. Symbols 12..19 (the round
// before and after the first block boundary) and the last three are
// forced onto rare far-tail values, so long codes also land at a block
// boundary, in the checked remainder and in the tail.
func wideCorpora() [][]int32 {
	var corpora [][]int32
	for r := 0; r < 16; r++ {
		syms := wideCodes(1<<14+r, int64(r))
		n := len(syms)
		for i := 12; i < 20; i++ {
			syms[i] = int32(32768 - 4000 - i)
		}
		for i := n - 3; i < n; i++ {
			syms[i] = int32(32768 + 4000 + i - n)
		}
		corpora = append(corpora, syms)
	}
	return corpora
}

// TestWideCorpusShape pins the premise of the wide tests and
// benchmarks: the benchmark stream has at least 15% of its codes past
// tableBits and codes up to ~22 bits, and every wideCorpora stream has
// long codes in all four lanes, at the forced positions and in its tail.
func TestWideCorpusShape(t *testing.T) {
	syms := wideCodes(1<<20, 1)
	_, lenOf, _, _, err := buildTable(nil, syms, 1<<16-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	long, maxLen := 0, uint8(0)
	for _, s := range syms {
		if lenOf[s] > tableBits {
			long++
		}
		maxLen = max(maxLen, lenOf[s])
	}
	if frac := float64(long) / float64(len(syms)); frac < 0.15 || maxLen < 20 {
		t.Fatalf("benchmark stream: %.1f%% of codes past %d bits, longest %d bits; want >= 15%% and >= 20",
			100*frac, tableBits, maxLen)
	}

	for _, syms := range wideCorpora() {
		n := len(syms)
		_, lenOf, _, _, err := buildTable(nil, syms, 1<<16-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var laneLong [4]int
		long := 0
		for i, s := range syms {
			if lenOf[s] > tableBits {
				laneLong[i&3]++
				long++
			}
		}
		if float64(long) < 0.15*float64(n) || slices.Contains(laneLong[:], 0) {
			t.Fatalf("n=%d: %d long codes, per lane %v", n, long, laneLong)
		}
		for _, i := range []int{12, 15, 16, 19, n - 3, n - 2, n - 1} {
			if lenOf[syms[i]] <= tableBits {
				t.Fatalf("n=%d: forced symbol %d has a %d-bit code", n, i, lenOf[syms[i]])
			}
		}
	}
}

// TestWideSingleStreamRoundTrip drives the wide corpus through the
// single-stream reference encoding and DecodeInto, with one scratch
// reused across all streams. The four-lane side runs in
// TestLanes4RoundTrip and TestEncodeLanes4MatchesSplitReference, whose
// laneCorpora include the wide corpus.
func TestWideSingleStreamRoundTrip(t *testing.T) {
	ds := NewDecodeScratch()
	var dst []int32
	for _, syms := range wideCorpora() {
		single, err := encodeSingle(syms)
		if err != nil {
			t.Fatal(err)
		}
		got, consumed, err := DecodeInto(dst, single, ds)
		if err != nil {
			t.Fatalf("n=%d: DecodeInto: %v", len(syms), err)
		}
		if consumed != len(single) || !slices.Equal(got, syms) {
			t.Fatalf("n=%d: single-stream round trip mismatch (consumed %d of %d)", len(syms), consumed, len(single))
		}
		dst = got
	}
}

// canonicalOrder returns the symbols 0..len(lens)-1 in canonical order
// (by length, then symbol) and their canonical codes, indexed by symbol.
func canonicalOrder(lens []uint8) (order []int32, codes []uint64) {
	order = make([]int32, len(lens))
	for s := range order {
		order[s] = int32(s)
	}
	sort.SliceStable(order, func(a, b int) bool { return lens[order[a]] < lens[order[b]] })
	codes = make([]uint64, len(lens))
	var code uint64
	prev := uint8(0)
	for _, s := range order {
		code <<= lens[s] - prev
		codes[s] = code
		code++
		prev = lens[s]
	}
	return order, codes
}

// handEncode encodes syms under the canonical code whose length for
// symbol s is lens[s] (every symbol present), bypassing buildTable, in
// both the single-stream and the four-lane layout. It lets tests declare
// codes no real symbol counts could produce.
func handEncode(lens []uint8, syms []int32) (single, lanes []byte) {
	order, codes := canonicalOrder(lens)
	hdr := binary.AppendUvarint(nil, uint64(len(syms)))
	hdr = binary.AppendUvarint(hdr, uint64(len(lens)))
	for _, s := range order {
		hdr = binary.AppendUvarint(hdr, uint64(s))
		hdr = binary.AppendUvarint(hdr, uint64(lens[s]))
	}
	emit := func(first, stride int) []byte {
		w := bitstream.NewWriter(0)
		for i := first; i < len(syms); i += stride {
			w.WriteBits(codes[syms[i]], uint(lens[syms[i]]))
		}
		return w.Bytes()
	}

	body := emit(0, 1)
	single = binary.AppendUvarint(slices.Clone(hdr), uint64(len(body)))
	single = append(single, body...)
	var bodies [4][]byte
	lanes = slices.Clone(hdr)
	for lane := range bodies {
		bodies[lane] = emit(lane, 4)
		lanes = binary.AppendUvarint(lanes, uint64(len(bodies[lane])))
	}
	for _, b := range bodies {
		lanes = append(lanes, b...)
	}
	return single, lanes
}

// TestMaxCodeLenChain decodes a complete canonical chain whose two
// longest codes are maxCodeLen = 57 bits — symbol k has length k+1, and
// symbol 57 shares the last length — through both decoders: every code
// must resolve from one refilled window. emitLane must write each lane
// of it exactly as the bit-writer reference does, including pairs of
// codes too wide to share one store. The same table declaring a 58-bit
// length must be rejected.
func TestMaxCodeLenChain(t *testing.T) {
	lens := make([]uint8, maxCodeLen+1)
	for s := range lens {
		lens[s] = uint8(min(s+1, maxCodeLen))
	}
	// Every symbol five times over (each lands on every lane), then a run
	// of the two 57-bit codes across block boundaries into a 3-symbol
	// tail.
	var syms []int32
	for rep := 0; rep < 5; rep++ {
		for s := range lens {
			syms = append(syms, int32(s))
		}
	}
	for i := 0; i < 37; i++ {
		syms = append(syms, int32(maxCodeLen-i%2))
	}

	single, lanes := handEncode(lens, syms)
	got, _, err := DecodeInto(nil, single, NewDecodeScratch())
	if err != nil || !slices.Equal(got, syms) {
		t.Fatalf("DecodeInto of the 57-bit chain: err %v, equal %v", err, slices.Equal(got, syms))
	}
	got, _, err = DecodeLanes4Into(nil, lanes, NewDecodeScratch())
	if err != nil || !slices.Equal(got, syms) {
		t.Fatalf("DecodeLanes4Into of the 57-bit chain: err %v, equal %v", err, slices.Equal(got, syms))
	}
	_, codes := canonicalOrder(lens)
	for lane := range 4 {
		var laneSyms []int32
		for i := lane; i < len(syms); i += 4 {
			laneSyms = append(laneSyms, syms[i])
		}
		w := bitstream.NewWriter(0)
		emitSyms(w, laneSyms, lens, codes)
		want := w.Bytes()
		out := make([]byte, len(want)+8)
		emitLane(out, syms[lane:], lens, codes)
		if !slices.Equal(out[:len(want)], want) {
			t.Fatalf("lane %d: emitLane differs from the emitSyms reference", lane)
		}
	}

	lens[maxCodeLen] = maxCodeLen + 1
	single, lanes = handEncode(lens, syms)
	for name, decode := range map[string]func([]int32, []byte, *DecodeScratch) ([]int32, int, error){
		"DecodeInto": DecodeInto, "DecodeLanes4Into": DecodeLanes4Into,
	} {
		enc := single
		if name == "DecodeLanes4Into" {
			enc = lanes
		}
		if _, _, err := decode(nil, enc, NewDecodeScratch()); err == nil || !strings.Contains(err.Error(), "invalid code length 58") {
			t.Fatalf("%s of a declared 58-bit code: err %v, want invalid code length 58", name, err)
		}
	}
}

// TestLanes4WarmNoAllocs pins the warm four-lane paths at zero heap
// allocations: EncodeLanes4 with its scratch and destination reused, and
// DecodeLanes4Into with its decode scratch and destination reused, on a
// stream where a fifth of the codes take the long-code path.
func TestLanes4WarmNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	syms := wideCodes(1<<14, 4)
	sc := NewScratch()
	enc, err := EncodeLanes4(nil, syms, 1<<16-1, sc)
	if err != nil {
		t.Fatal(err)
	}
	buf := slices.Clone(enc)
	if a := testing.AllocsPerRun(20, func() {
		if buf, err = EncodeLanes4(buf[:0], syms, 1<<16-1, sc); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("warm EncodeLanes4 allocates %.1f times per call, want 0", a)
	}

	ds := NewDecodeScratch()
	dst, _, err := DecodeLanes4Into(nil, enc, ds)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if dst, _, err = DecodeLanes4Into(dst, enc, ds); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("warm DecodeLanes4Into allocates %.1f times per call, want 0", a)
	}
}
