package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"math/rand"
	"testing"
)

// inflate decompresses a DEFLATE stream with the stock stdlib reader —
// the reference every emitted stream must satisfy.
func inflate(t testing.TB, stream []byte) []byte {
	t.Helper()
	fr := flate.NewReader(bytes.NewReader(stream))
	out, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("compress/flate failed to inflate emitted stream: %v", err)
	}
	if err := fr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out
}

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	e := NewEncoder()
	stream := e.AppendEncode(nil, src)
	got := inflate(t, stream)
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d bytes out", len(src), len(got))
	}
}

// testInputs covers every block-type decision path: empty, tiny,
// incompressible (stored), skewed (dynamic literal-only), repetitive
// (LZ matches), single-symbol, and multi-block inputs.
func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	random := make([]byte, 200000) // > 3 blocks of incompressible data
	rng.Read(random)

	skewed := make([]byte, 100000)
	for i := range skewed {
		skewed[i] = byte(rng.ExpFloat64() * 8)
	}

	repetitive := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 3000)

	floats := make([]byte, 0, 160000)
	for i := 0; i < 40000; i++ {
		v := math.Float32bits(float32(math.Sin(float64(i) / 97)))
		floats = append(floats, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}

	mixed := append(append(append([]byte{}, random[:70000]...), repetitive[:70000]...), skewed[:70000]...)

	return map[string][]byte{
		"empty":         nil,
		"one_byte":      {0x42},
		"tiny":          []byte("abc"),
		"single_symbol": bytes.Repeat([]byte{7}, 70000),
		"two_symbols":   bytes.Repeat([]byte{0, 255}, 40000),
		"random":        random,
		"skewed":        skewed,
		"repetitive":    repetitive,
		"float_bytes":   floats,
		"mixed":         mixed,
		"block_edge_lo": random[:65535],
		"block_edge_hi": random[:65536],
		"all_zero":      make([]byte, 130000),
	}
}

func TestRoundTrip(t *testing.T) {
	for name, src := range testInputs() {
		t.Run(name, func(t *testing.T) { roundTrip(t, src) })
	}
}

// TestEncoderReuse checks that one Encoder produces independent,
// correct streams across reuse, including after inputs that exercise
// the LZ hash table.
func TestEncoderReuse(t *testing.T) {
	e := NewEncoder()
	inputs := testInputs()
	for round := 0; round < 3; round++ {
		for name, src := range inputs {
			stream := e.AppendEncode(nil, src)
			if got := inflate(t, stream); !bytes.Equal(got, src) {
				t.Fatalf("round %d %s: mismatch after reuse", round, name)
			}
		}
	}
}

// TestAppendToPrefix checks that AppendEncode appends after existing
// dst content instead of clobbering it.
func TestAppendToPrefix(t *testing.T) {
	prefix := []byte("header-bytes")
	e := NewEncoder()
	src := []byte("some payload worth compressing, some payload worth compressing")
	out := e.AppendEncode(append([]byte{}, prefix...), src)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("prefix clobbered")
	}
	if got := inflate(t, out[len(prefix):]); !bytes.Equal(got, src) {
		t.Fatalf("stream after prefix does not round-trip")
	}
}

// TestSizeVsStdlib pins the compressed-size contract: on inputs shaped
// like fpsz chunk payloads (near-incompressible entropy-coded bytes
// plus structured float sections) the purpose-built encoder stays
// within 2% of compress/flate BestSpeed.
func TestSizeVsStdlib(t *testing.T) {
	e := NewEncoder()
	for name, src := range testInputs() {
		if len(src) < 1024 {
			continue // framing noise dominates tiny inputs
		}
		ours := len(e.AppendEncode(nil, src))
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(src)
		fw.Close()
		std := buf.Len()
		ratio := float64(ours) / float64(std)
		t.Logf("%-14s ours %8d  stdlib %8d  ratio %.4f", name, ours, std, ratio)
		if ratio > 1.02 {
			t.Errorf("%s: %d bytes vs stdlib %d (%.2f%% larger, budget 2%%)",
				name, ours, std, 100*(ratio-1))
		}
	}
}

// TestAllocs pins the zero-steady-state-allocation contract of a warm
// Encoder.
func TestAllocs(t *testing.T) {
	e := NewEncoder()
	inputs := testInputs()
	dst := make([]byte, 0, 1<<20)
	for _, src := range inputs {
		e.AppendEncode(dst[:0], src) // warm token/sort buffers
	}
	for name, src := range inputs {
		src := src
		allocs := testing.AllocsPerRun(5, func() {
			out := e.AppendEncode(dst[:0], src)
			if cap(out) > cap(dst) {
				dst = out[:0]
			}
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per warm encode, want 0", name, allocs)
		}
	}
}

// TestBuildLensKraft checks the length-limit repair on chain-shaped
// (Fibonacci) frequencies, whose unlimited Huffman tree is a path with
// leaves many levels past the limit: the limited code must still satisfy
// the Kraft inequality (Σ 2^-len ≤ 1), or inflaters reject the block
// header as an over-subscribed code.
func TestBuildLensKraft(t *testing.T) {
	for _, c := range []struct{ n, maxLen int }{
		{numCL, maxCLBits}, // the code-length alphabet at its 7-bit limit
		{30, maxBits},      // a literal/length-sized chain at 15 bits
	} {
		freq := make([]uint32, c.n)
		a, b := uint32(1), uint32(1)
		for i := range freq {
			freq[i] = a
			a, b = b, a+b
		}
		lens := make([]uint8, c.n)
		var scratch []uint32
		buildLens(freq, c.maxLen, lens, &scratch)
		kraft := 0 // in units of 2^-maxLen
		for s, l := range lens {
			if l == 0 || int(l) > c.maxLen {
				t.Fatalf("n=%d maxLen=%d: symbol %d has length %d", c.n, c.maxLen, s, l)
			}
			kraft += 1 << (c.maxLen - int(l))
		}
		if kraft > 1<<c.maxLen {
			t.Errorf("n=%d maxLen=%d: Kraft sum %d/%d > 1 (over-subscribed code)", c.n, c.maxLen, kraft, 1<<c.maxLen)
		}
	}
}

// FuzzDeflateVsStdlib is the differential fuzzer of the CI fuzz-smoke
// job: every stream the purpose-built encoder emits must inflate
// byte-identically with stock compress/flate.
func FuzzDeflateVsStdlib(f *testing.F) {
	for _, src := range testInputs() {
		if len(src) > 1<<17 {
			src = src[:1<<17]
		}
		f.Add(src)
	}
	e := NewEncoder()
	f.Fuzz(func(t *testing.T, src []byte) {
		stream := e.AppendEncode(nil, src)
		fr := flate.NewReader(bytes.NewReader(stream))
		got, err := io.ReadAll(fr)
		if err != nil {
			t.Fatalf("stdlib inflate rejected emitted stream: %v", err)
		}
		if err := fr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("inflate(%d bytes) != src(%d bytes)", len(got), len(src))
		}
	})
}

func benchEncode(b *testing.B, src []byte) {
	e := NewEncoder()
	dst := e.AppendEncode(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.AppendEncode(dst[:0], src)
	}
}

func benchStdlib(b *testing.B, src []byte) {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		fw.Reset(&buf)
		fw.Write(src)
		fw.Close()
	}
}

func BenchmarkEncodeRandom(b *testing.B)     { benchEncode(b, testInputs()["random"]) }
func BenchmarkEncodeFloatBytes(b *testing.B) { benchEncode(b, testInputs()["float_bytes"]) }
func BenchmarkEncodeSkewed(b *testing.B)     { benchEncode(b, testInputs()["skewed"]) }
func BenchmarkEncodeRepetitive(b *testing.B) { benchEncode(b, testInputs()["repetitive"]) }
func BenchmarkStdlibRandom(b *testing.B)     { benchStdlib(b, testInputs()["random"]) }
func BenchmarkStdlibFloatBytes(b *testing.B) { benchStdlib(b, testInputs()["float_bytes"]) }
func BenchmarkStdlibSkewed(b *testing.B)     { benchStdlib(b, testInputs()["skewed"]) }
func BenchmarkStdlibRepetitive(b *testing.B) { benchStdlib(b, testInputs()["repetitive"]) }
