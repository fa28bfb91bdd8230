package fieldio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"fixedpsnr/internal/field"
)

func testField(prec field.Precision, dims ...int) *field.Field {
	f := field.New("test/field-1", prec, dims...)
	rng := rand.New(rand.NewSource(1))
	for i := range f.Data {
		v := rng.NormFloat64() * 1e3
		if prec == field.Float32 {
			v = float64(float32(v))
		}
		f.Data[i] = v
	}
	return f
}

func TestRoundTripFloat32(t *testing.T) {
	f := testField(field.Float32, 7, 9)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || !f.SameShape(g) || g.Precision != field.Float32 {
		t.Fatalf("metadata mismatch: %v", g)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("value %d: %g != %g", i, f.Data[i], g.Data[i])
		}
	}
}

func TestRoundTripFloat64(t *testing.T) {
	f := testField(field.Float64, 3, 4, 5)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestSpecialValuesSurvive(t *testing.T) {
	f := field.New("special", field.Float64, 4)
	f.Data[0] = math.NaN()
	f.Data[1] = math.Inf(1)
	f.Data[2] = math.Inf(-1)
	f.Data[3] = math.Copysign(0, -1)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(g.Data[0]) || !math.IsInf(g.Data[1], 1) || !math.IsInf(g.Data[2], -1) {
		t.Fatal("special values lost")
	}
	if math.Signbit(g.Data[3]) != true {
		t.Fatal("negative zero lost")
	}
}

func TestWriteRejectsInvalidField(t *testing.T) {
	bad := &field.Field{Name: "bad", Dims: []int{2}, Data: make([]float64, 3)}
	if err := Write(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX rest"))); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	f := testField(field.Float32, 10)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("expected error at cut %d", cut)
		}
	}
}

func TestReadRejectsBadPrecision(t *testing.T) {
	f := testField(field.Float32, 4)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 7 // precision byte
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected precision error")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "field.sdf")
	f := testField(field.Float32, 12, 8)
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatal("file round trip mismatch")
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.sdf")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestReadOversizedDeclaration pins the allocation of a 14-byte body that
// declares a 512^3 float64 field (1 GiB of values) and holds none. With
// the remaining length known (a bytes.Reader, as a server holds a request
// body) Read rejects it before allocating any value storage; over a
// reader of unknown length the values grow as they arrive, so the failed
// read costs at most its first window.
func TestReadOversizedDeclaration(t *testing.T) {
	body := append([]byte(nil), Magic[:]...)
	body = append(body, byte(field.Float64), 1, 'p', 3)
	for range 3 {
		body = binary.AppendUvarint(body, 512)
	}
	if len(body) != 14 {
		t.Fatalf("probe body is %d bytes, want 14", len(body))
	}
	for _, tc := range []struct {
		name  string
		r     io.Reader
		limit uint64
	}{
		{"known length", bytes.NewReader(body), 256 << 10},
		{"unknown length", io.MultiReader(bytes.NewReader(body)), 1 << 20},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Read(tc.r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: 14-byte body declaring 2^27 values accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("%s: Read allocated %d bytes before failing, limit %d", tc.name, got, tc.limit)
		}
	}
}

// TestReadGrowsUnknownLength round-trips a field larger than the initial
// value window through a reader that does not report its length.
func TestReadGrowsUnknownLength(t *testing.T) {
	for _, prec := range []field.Precision{field.Float32, field.Float64} {
		f := testField(prec, 9, 100, 90)
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, err := Read(io.MultiReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Data) != len(f.Data) {
			t.Fatalf("read %d values, want %d", len(g.Data), len(f.Data))
		}
		for i := range f.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(f.Data[i]) {
				t.Fatalf("%v value %d: %g, want %g", prec, i, g.Data[i], f.Data[i])
			}
		}
	}
}
