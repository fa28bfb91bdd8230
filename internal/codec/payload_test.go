package codec_test

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/deflate"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/huffman"
)

// literalCountPayload hand-builds a four-lane payload that carries no
// codes and a literal section declaring nlit literals with no bytes
// behind them.
func literalCountPayload(tb testing.TB, prefix []byte, nlit uint64) []byte {
	tb.Helper()
	block, err := huffman.EncodeLanes4(nil, nil, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p := []byte{codec.PayloadMarker, codec.PayloadVersionLanes4}
	p = append(p, prefix...)
	p = binary.AppendUvarint(p, 0) // npoints
	p = append(p, codec.PayloadCodesRaw)
	p = binary.AppendUvarint(p, uint64(len(block)))
	p = append(p, block...)
	lit := deflate.NewEncoder().AppendEncode(nil, binary.AppendUvarint(nil, nlit))
	p = binary.AppendUvarint(p, uint64(len(lit)))
	return append(p, lit...)
}

// otcPrefix is a transform-pipeline payload prefix (DCT, block edge 8),
// and skipOTCPrefix a prefix callback that accepts exactly it.
var otcPrefix = []byte{byte(codec.TransformDCT), 8}

func skipOTCPrefix(b []byte) ([]byte, error) {
	if len(b) < len(otcPrefix) || !slices.Equal(b[:len(otcPrefix)], otcPrefix) {
		return nil, errors.New("bad prefix")
	}
	return b[len(otcPrefix):], nil
}

// literalCountCase is one hand-built payload whose declared literal
// count no bytes back.
type literalCountCase struct {
	name    string
	payload []byte
	prec    field.Precision
	prefix  func([]byte) ([]byte, error)
}

// literalCountCases are declared literal counts whose byte size wraps a
// 64-bit product to zero (2^62 four-byte or 2^61 eight-byte literals) or
// turns negative as an int (2^63), at both literal widths.
func literalCountCases(tb testing.TB) []literalCountCase {
	return []literalCountCase{
		{"float32 2^62", literalCountPayload(tb, nil, 1<<62), field.Float32, nil},
		{"float32 2^63", literalCountPayload(tb, nil, 1<<63), field.Float32, nil},
		{"float64 2^61", literalCountPayload(tb, nil, 1<<61), field.Float64, nil},
		{"float64 2^63", literalCountPayload(tb, nil, 1<<63), field.Float64, nil},
		{"otc float64 2^61", literalCountPayload(tb, otcPrefix, 1<<61), field.Float64, skipOTCPrefix},
	}
}

// TestParsePayloadRejectsHugeLiteralCount is the regression test for
// declared literal counts whose byte size overflows: the parser must
// reject them with an error before sizing the literal buffer.
func TestParsePayloadRejectsHugeLiteralCount(t *testing.T) {
	sc := codec.NewScratch()
	for _, c := range literalCountCases(t) {
		if _, _, err := sc.ParsePayload(c.payload, c.prec, c.prefix); err == nil {
			t.Errorf("%s: accepted a literal count no bytes back", c.name)
		}
	}
}

// TestPayloadRoundTrip drives AppendPayload and ParsePayload over both
// literal precisions, with and without a prefix, across a smooth
// (codes deflated) and a noisy (codes raw) code distribution.
func TestPayloadRoundTrip(t *testing.T) {
	sc := codec.NewScratch()
	smooth := make([]int32, 5000)
	noisy := make([]int32, 5000)
	for i := range smooth {
		smooth[i] = 512
		noisy[i] = int32(1 + (i*7919)%1023)
	}
	smooth[17], noisy[99] = 0, 0
	literals := []float64{math.Pi, -1e-30, 3.5}
	for _, codes := range [][]int32{smooth, noisy} {
		for _, prec := range []field.Precision{field.Float32, field.Float64} {
			for _, prefix := range [][]byte{nil, otcPrefix} {
				payload, err := sc.AppendPayload(nil, prefix, codes, 1023, literals, prec)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(payload[2:2+len(prefix)], prefix) {
					t.Fatalf("prefix %v not written after the version byte", prefix)
				}
				var parse func([]byte) ([]byte, error)
				if prefix != nil {
					parse = skipOTCPrefix
				}
				gotCodes, gotLits, err := sc.ParsePayload(payload, prec, parse)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(gotCodes, codes) {
					t.Fatalf("codes differ after round trip (prec %v, prefix %v)", prec, prefix)
				}
				for i, v := range literals {
					if prec == field.Float32 {
						v = float64(float32(v))
					}
					if gotLits[i] != v {
						t.Fatalf("literal %d: got %g, want %g", i, gotLits[i], v)
					}
				}
			}
		}
	}
}

// fixtureStreams reads the committed stream fixtures: the eight current
// four-lane streams and the five frozen legacy ones.
func fixtureStreams(tb testing.TB) [][]byte {
	tb.Helper()
	dir := filepath.Join("..", "..", "testdata", "streams")
	var out [][]byte
	for _, pattern := range []string{"*.fpsz", filepath.Join("lanes4", "*.fpsz")} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			blob, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, blob)
		}
	}
	if len(out) != 13 {
		tb.Fatalf("found %d stream fixtures, want 13", len(out))
	}
	return out
}

// smallChunkHeader returns a one-chunk float32 stream header for
// pipeline id over a 2×4×8 grid. Fuzzed payloads go through the
// pipeline's own chunk decoder against it: every payload is parsed with
// the pipeline's prefix callback, and only one that declares exactly
// these 64 codes goes on to a (cheap) reconstruction.
func smallChunkHeader(tb testing.TB, id codec.ID) *codec.Header {
	tb.Helper()
	h := &codec.Header{
		Codec:      id,
		Precision:  field.Float32,
		Mode:       codec.ModePSNR,
		Name:       "fuzz",
		Dims:       []int{2, 4, 8},
		EbAbs:      1e-3,
		TargetPSNR: 60,
		ValueRange: 2,
		Capacity:   65536,
		Chunks:     []codec.ChunkInfo{{Rows: 2, MSE: 1e-8, Min: -1, Max: 1}},
	}
	parsed, err := codec.ParseHeader(h.Marshal())
	if err != nil {
		tb.Fatal(err)
	}
	return parsed
}

// FuzzChunkPayload feeds arbitrary bytes through the shared chunk-payload
// parser: directly, with the SZ pipeline's empty prefix at both literal
// precisions, and through the SZ and transform pipelines' chunk
// decoders, which parse with their own prefix callbacks. Every input
// must come back as an error or a result, never a panic, and an accepted
// payload with a small alphabet must survive a re-encode unchanged.
// Seeds are every chunk payload of the committed fixtures (eight
// four-lane streams, five legacy) plus the literal-count regressions.
// The fixture payloads are 8-20 KB, so fuzz with a bound on minimization
// (-fuzzminimizetime 1s), or minimizing one new input eats the run.
func FuzzChunkPayload(f *testing.F) {
	for _, blob := range fixtureStreams(f) {
		h, err := codec.ParseHeader(blob)
		if err != nil {
			f.Fatal(err)
		}
		for ci := range h.Chunks {
			payload, err := codec.ChunkPayload(blob, h, ci)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	for _, c := range literalCountCases(f) {
		f.Add(c.payload)
	}
	decoders := []*codec.Header{smallChunkHeader(f, codec.IDLorenzo), smallChunkHeader(f, codec.IDOTC)}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sc := codec.NewScratch()
		for _, prec := range []field.Precision{field.Float32, field.Float64} {
			codes, literals, err := sc.ParsePayload(payload, prec, nil)
			if err != nil {
				continue
			}
			checkReencode(t, sc, codes, literals, prec)
		}
		for _, h := range decoders {
			dst := make([]float64, h.ChunkPoints(0))
			codec.DecompressChunkInto(dst, h, 0, payload, sc) // error or success; never a panic
		}
	})
}

// checkReencode writes an accepted payload's codes and literals back
// out and parses them again; both must come back unchanged. Wide
// alphabets are skipped: the encoder's tables are sized by the largest
// code.
func checkReencode(t *testing.T, sc *codec.Scratch, codes []int32, literals []float64, prec field.Precision) {
	t.Helper()
	maxSym := int32(0)
	for _, c := range codes {
		maxSym = max(maxSym, c)
	}
	if maxSym >= 1<<12 {
		return
	}
	again, err := sc.AppendPayload(nil, nil, codes, int(maxSym), literals, prec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	codes2, literals2, err := sc.ParsePayload(again, prec, nil)
	if err != nil {
		t.Fatalf("re-encoded payload rejected: %v", err)
	}
	if !slices.Equal(codes, codes2) {
		t.Fatal("codes changed across re-encode")
	}
	if !slices.EqualFunc(literals, literals2, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}) {
		t.Fatal("literals changed across re-encode")
	}
}
