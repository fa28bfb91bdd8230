package huffman

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, syms []int32) {
	t.Helper()
	enc, err := encodeSingle(syms)
	if err != nil {
		t.Fatalf("encodeSingle: %v", err)
	}
	dec, consumed, err := DecodeInto(nil, enc, nil)
	if err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	if consumed != len(enc) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(enc))
	}
	if !reflect.DeepEqual(dec, syms) {
		t.Fatalf("round trip mismatch: got %v, want %v", dec, syms)
	}
}

func TestRoundTripEmpty(t *testing.T)        { roundTrip(t, []int32{}) }
func TestRoundTripSingle(t *testing.T)       { roundTrip(t, []int32{7}) }
func TestRoundTripOneSymbol(t *testing.T)    { roundTrip(t, []int32{5, 5, 5, 5, 5}) }
func TestRoundTripTwoSymbols(t *testing.T)   { roundTrip(t, []int32{1, 2, 1, 2, 2, 2, 1}) }
func TestRoundTripWideAlphabet(t *testing.T) { roundTrip(t, []int32{0, 65535, 32768, 1, 65535, 0}) }

func TestRoundTripSkewed(t *testing.T) {
	// Highly skewed frequencies exercise deep codes.
	var syms []int32
	for i := 0; i < 12; i++ {
		for j := 0; j < 1<<i; j++ {
			syms = append(syms, int32(i))
		}
	}
	roundTrip(t, syms)
}

func TestRoundTripRandomQuantCodes(t *testing.T) {
	// Mimic SZ quantization codes: Laplacian-ish around a radius.
	rng := rand.New(rand.NewSource(7))
	radius := 32768
	syms := make([]int32, 50000)
	for i := range syms {
		mag := int(rng.ExpFloat64() * 3)
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
		if rng.Intn(500) == 0 {
			c = 0 // unpredictable marker
		}
		syms[i] = int32(c)
	}
	roundTrip(t, syms)
}

func TestDecodeRejectsTruncated(t *testing.T) {
	enc, err := encodeSingle([]int32{1, 2, 3, 1, 2, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeInto(nil, enc[:cut], nil); err == nil {
			// Some prefixes may parse as a shorter valid stream only
			// if counts allow; a fully valid decode of a strict prefix
			// that consumed everything would be a bug.
			dec, consumed, _ := DecodeInto(nil, enc[:cut], nil)
			if consumed == cut && reflect.DeepEqual(dec, []int32{1, 2, 3, 1, 2, 3, 3, 3}) {
				t.Fatalf("truncated stream (cut=%d) decoded to the full input", cut)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeInto(nil, []byte{}, nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
	if _, _, err := DecodeInto(nil, []byte{0xff}, nil); err == nil {
		t.Fatal("expected error for bare 0xff")
	}
}

func TestDecodeTrailingBytesIgnored(t *testing.T) {
	syms := []int32{4, 4, 2, 9}
	enc, err := encodeSingle(syms)
	if err != nil {
		t.Fatal(err)
	}
	withTrailer := append(append([]byte{}, enc...), 0xAA, 0xBB)
	dec, consumed, err := DecodeInto(nil, withTrailer, nil)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(enc) {
		t.Fatalf("consumed = %d, want %d", consumed, len(enc))
	}
	if !reflect.DeepEqual(dec, syms) {
		t.Fatal("decode with trailer mismatch")
	}
}

func TestCompressionBeatsFixedWidth(t *testing.T) {
	// 64k symbols drawn from a peaked distribution should code well
	// under 16 bits each.
	rng := rand.New(rand.NewSource(3))
	syms := make([]int32, 65536)
	for i := range syms {
		syms[i] = int32(32768 + int(rng.NormFloat64()*2))
	}
	enc, err := EncodeLanes4(nil, syms, maxSymOf(syms), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(syms)*2/2 { // < 8 bits/symbol
		t.Fatalf("encoded %d symbols into %d bytes; expected < %d", len(syms), len(enc), len(syms))
	}
}

// Property: arbitrary non-negative symbol streams round-trip.
func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		syms := make([]int32, len(raw))
		for i, v := range raw {
			syms[i] = int32(v)
		}
		enc, err := encodeSingle(syms)
		if err != nil {
			return false
		}
		dec, consumed, err := DecodeInto(nil, enc, nil)
		if err != nil || consumed != len(enc) {
			return false
		}
		return reflect.DeepEqual(dec, syms)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
