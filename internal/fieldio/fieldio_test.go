package fieldio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
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

// TestReadOversizedDeclaration pins the allocation of two bodies whose
// declared size the bytes cannot back. The 14-byte body declares a 512^3
// float64 field (1 GiB of values) and holds none; the 17-byte body
// declares dims {2^31, 2^32}, whose product overflows an int. With the
// remaining length known (a bytes.Reader, as a server holds a request
// body) Read rejects each before allocating any value storage; over a
// reader of unknown length the values grow as they arrive, so the failed
// read costs at most its first window.
func TestReadOversizedDeclaration(t *testing.T) {
	oversized := append([]byte(nil), Magic[:]...)
	oversized = append(oversized, byte(field.Float64), 1, 'p', 3)
	for range 3 {
		oversized = binary.AppendUvarint(oversized, 512)
	}
	overflow := append([]byte(nil), Magic[:]...)
	overflow = append(overflow, byte(field.Float32), 0, 2)
	overflow = binary.AppendUvarint(overflow, 1<<31)
	overflow = binary.AppendUvarint(overflow, 1<<32)
	for _, probe := range []struct {
		name string
		body []byte
		size int
	}{
		{"oversized", oversized, 14},
		{"overflow", overflow, 17},
	} {
		if len(probe.body) != probe.size {
			t.Fatalf("%s probe body is %d bytes, want %d", probe.name, len(probe.body), probe.size)
		}
		for _, tc := range []struct {
			name  string
			r     io.Reader
			limit uint64
		}{
			{"known length", bytes.NewReader(probe.body), 256 << 10},
			{"unknown length", io.MultiReader(bytes.NewReader(probe.body)), 1 << 20},
		} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := Read(tc.r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s, %s: %d-byte body accepted", probe.name, tc.name, probe.size)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
				t.Errorf("%s, %s: Read allocated %d bytes before failing, limit %d", probe.name, tc.name, got, tc.limit)
			}
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

// countingWriter counts the Write calls that reach it.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

// TestWriteMatchesPerValueEncoding pins Write's blocked encoding to the
// format's definition, one value at a time, at lengths on and around the
// block size, and checks Size and the number of Write calls.
func TestWriteMatchesPerValueEncoding(t *testing.T) {
	for _, prec := range []field.Precision{field.Float32, field.Float64} {
		for _, n := range []int{1, 7, writeBlock - 1, writeBlock, writeBlock + 1, 2*writeBlock + 5} {
			f := testField(prec, n)
			want := append([]byte("SDF1"), byte(prec))
			want = binary.AppendUvarint(want, uint64(len(f.Name)))
			want = append(want, f.Name...)
			want = append(want, 1)
			want = binary.AppendUvarint(want, uint64(n))
			for _, v := range f.Data {
				if prec == field.Float32 {
					want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(v)))
				} else {
					want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
				}
			}
			var w countingWriter
			if err := Write(&w, f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%v, %d values: Write differs from the per-value encoding", prec, n)
			}
			if Size(f) != len(want) {
				t.Fatalf("%v, %d values: Size = %d, want %d", prec, n, Size(f), len(want))
			}
			if blocks := (n + writeBlock - 1) / writeBlock; w.calls != blocks {
				t.Fatalf("%v, %d values: %d Write calls, want %d", prec, n, w.calls, blocks)
			}
		}
	}
}

// FuzzRead feeds arbitrary bodies to Read, over a reader of known length
// (as a server holds a request body) and one of unknown length. Read must
// never panic, both readers must agree, and an accepted field must
// round-trip: Write emits bytes that Read maps back to the same field and
// that Write reproduces exactly.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, testField(field.Float32, 3, 4, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(append([]byte("SDF1\x01\x01p\x03"), 0x80, 0x04, 0x80, 0x04, 0x80, 0x04))                        // 512^3 float64 values, none present
	f.Add(append([]byte("SDF1\x00\x00\x02"), 0x80, 0x80, 0x80, 0x80, 0x08, 0x80, 0x80, 0x80, 0x80, 0x10)) // dims {2^31, 2^32}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := Read(bytes.NewReader(body))
		got2, err2 := Read(io.MultiReader(bytes.NewReader(body)))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("known-length reader err %v, unknown-length reader err %v", err, err2)
		}
		if err != nil {
			return
		}
		if !sameField(got, got2) {
			t.Fatal("known- and unknown-length readers decoded different fields")
		}
		if _, err := Read(bytes.NewReader(append(body[:len(body):len(body)], 0))); err == nil {
			t.Fatal("accepted the body with a byte appended")
		}
		var w1 bytes.Buffer
		if err := Write(&w1, got); err != nil {
			t.Fatalf("accepted field does not write: %v", err)
		}
		if w1.Len() != Size(got) {
			t.Fatalf("Write wrote %d bytes, Size says %d", w1.Len(), Size(got))
		}
		back, err := Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written field does not read back: %v", err)
		}
		if !sameField(got, back) {
			t.Fatal("field changed across Write and Read")
		}
		var w2 bytes.Buffer
		if err := Write(&w2, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("Write of the read-back field gave different bytes")
		}
	})
}

func sameField(a, b *field.Field) bool {
	if a.Name != b.Name || a.Precision != b.Precision || !slices.Equal(a.Dims, b.Dims) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
