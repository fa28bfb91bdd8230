package sz

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
)

func pwrelField(dims ...int) *field.Field {
	f := field.New("pwrel", field.Float64, dims...)
	rng := rand.New(rand.NewSource(21))
	for i := range f.Data {
		// Wide dynamic range with both signs and exact zeros.
		mag := math.Exp(rng.NormFloat64() * 4)
		switch rng.Intn(10) {
		case 0:
			f.Data[i] = 0
		case 1, 2, 3:
			f.Data[i] = -mag
		default:
			f.Data[i] = mag
		}
	}
	return f
}

func assertPWRelBound(t *testing.T, orig, recon *field.Field, ebRel float64) {
	t.Helper()
	for i := range orig.Data {
		x, y := orig.Data[i], recon.Data[i]
		if x == 0 {
			if y != 0 {
				t.Fatalf("zero at %d reconstructed as %g", i, y)
			}
			continue
		}
		rel := math.Abs(y-x) / math.Abs(x)
		if rel > ebRel*(1+1e-9) {
			t.Fatalf("pointwise relative bound violated at %d: |%g−%g|/|%g| = %g > %g",
				i, y, x, x, rel, ebRel)
		}
		if math.Signbit(x) != math.Signbit(y) {
			t.Fatalf("sign flipped at %d: %g → %g", i, x, y)
		}
	}
}

func TestPWRelRoundTrip(t *testing.T) {
	f := pwrelField(60, 50)
	for _, ebRel := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		blob, st, err := szCodec{}.CompressPWRel(context.Background(), f, ebRel, Options{Workers: 1}, nil)
		if err != nil {
			t.Fatalf("ebRel=%g: %v", ebRel, err)
		}
		before := codec.HeaderParses()
		g, h, err := codec.Decompress(blob) // routed via codec dispatch
		if err != nil {
			t.Fatalf("ebRel=%g: %v", ebRel, err)
		}
		// The outer header, then the inner stream's, once each.
		if parses := codec.HeaderParses() - before; parses != 2 {
			t.Fatalf("ebRel=%g: Decompress parsed %d headers, want 2", ebRel, parses)
		}
		if h.Codec != codec.IDLogLorenzo || h.Mode != codec.ModePWRel {
			t.Fatalf("header: %+v", h)
		}
		assertPWRelBound(t, f, g, ebRel)
		if st.Ratio <= 0 {
			t.Fatalf("stats: %+v", st)
		}
	}
}

func TestPWRel1D3D(t *testing.T) {
	for _, dims := range [][]int{{500}, {10, 15, 20}} {
		f := pwrelField(dims...)
		blob, _, err := szCodec{}.CompressPWRel(context.Background(), f, 1e-3, Options{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := codec.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		assertPWRelBound(t, f, g, 1e-3)
	}
}

func TestPWRelValidatesBound(t *testing.T) {
	f := pwrelField(32)
	for _, eb := range []float64{0, -0.1, 1, 2, math.NaN()} {
		if _, _, err := (szCodec{}).CompressPWRel(context.Background(), f, eb, Options{}, nil); err == nil {
			t.Fatalf("expected error for ebRel=%g", eb)
		}
	}
}

func TestPWRelAllZeros(t *testing.T) {
	f := field.New("zeros", field.Float64, 40)
	blob, _, err := szCodec{}.CompressPWRel(context.Background(), f, 1e-3, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := codec.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("zero field value %d = %g", i, v)
		}
	}
}

func TestPWRelNegativeZeroPreserved(t *testing.T) {
	f := field.New("negz", field.Float64, 8)
	f.Data[3] = math.Copysign(0, -1)
	f.Data[5] = 1.5
	blob, _, err := szCodec{}.CompressPWRel(context.Background(), f, 1e-2, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := codec.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(g.Data[3]) || g.Data[3] != 0 {
		t.Fatalf("negative zero lost: %g", g.Data[3])
	}
	if g.Data[5] == 0 {
		t.Fatal("non-zero value zeroed")
	}
}

func TestPWRelTinyAndHugeMagnitudes(t *testing.T) {
	f := field.New("range", field.Float64, 6)
	copy(f.Data, []float64{1e-300, -1e-300, 1e300, -1e300, 1e-10, 1e10})
	blob, _, err := szCodec{}.CompressPWRel(context.Background(), f, 1e-4, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := codec.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertPWRelBound(t, f, g, 1e-4)
}

func TestPWRelTruncatedStream(t *testing.T) {
	f := pwrelField(64)
	blob, _, err := szCodec{}.CompressPWRel(context.Background(), f, 1e-3, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := codec.Decompress(blob[:len(blob)-8]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// TestPWRelHostileSizes decodes two crafted streams of an 8×8 field: an
// inner stream that is a constant header declaring 2^46 points, and a
// mask section that inflates to 16 MiB. Both must fail with an error,
// and neither may allocate what the outer header never declared.
func TestPWRelHostileSizes(t *testing.T) {
	blob, _, err := szCodec{}.CompressPWRel(context.Background(), pwrelField(8, 8), 1e-2, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := codec.ChunkPayload(blob, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	maskLen, k := binary.Uvarint(payload[8:])
	masks := payload[8+k : 8+k+int(maskLen)]
	inner := payload[8+k+int(maskLen):]
	probe := func(masks, inner []byte) []byte {
		pl := codec.AppendFloat64(nil, 1e-2)
		pl = binary.AppendUvarint(pl, uint64(len(masks)))
		pl = append(append(pl, masks...), inner...)
		out, err := codec.AssembleStream(h, [][]byte{pl})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	huge, _ := codec.ConstantStream("pwrel", field.Float64, []int{1 << 23, 1 << 23}, codec.ModePWRel, 0)
	var zeros bytes.Buffer
	fw, _ := flate.NewWriter(&zeros, flate.BestCompression)
	fw.Write(make([]byte, 16<<20))
	fw.Close()
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"inner stream declaring 2^46 points", probe(masks, huge)},
		{"masks inflating to 16 MiB", probe(zeros.Bytes(), inner)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Decompress panicked: %v", tc.name, r)
				}
			}()
			if _, _, err := codec.Decompress(tc.stream); err == nil {
				t.Fatalf("%s: %d-byte stream accepted", tc.name, len(tc.stream))
			}
		}()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: Decompress allocated %d bytes before failing, limit %d", tc.name, got, 1<<20)
		}
	}
}
