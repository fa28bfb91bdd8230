package sz

import (
	"math"
	"math/rand"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/quantizer"
	"fixedpsnr/internal/stats"
)

// randomField builds a field with smooth structure plus noise so that
// prediction is good but not perfect.
func randomField(t *testing.T, name string, noise float64, dims ...int) *field.Field {
	t.Helper()
	f := field.New(name, field.Float64, dims...)
	rng := rand.New(rand.NewSource(int64(len(name)) + int64(f.Len())))
	switch len(dims) {
	case 1:
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)/9) + noise*rng.NormFloat64()
		}
	case 2:
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				f.Set2(i, j, math.Sin(float64(i)/7)*math.Cos(float64(j)/11)+noise*rng.NormFloat64())
			}
		}
	case 3:
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for k := 0; k < dims[2]; k++ {
					f.Set3(i, j, k, math.Sin(float64(i)/5)*math.Cos(float64(j)/7)*math.Sin(float64(k)/3)+noise*rng.NormFloat64())
				}
			}
		}
	}
	return f
}

func roundTrip(t *testing.T, f *field.Field, opt Options) (*field.Field, *Stats) {
	t.Helper()
	blob, st, err := compress(f, opt)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	g, h, err := codec.Decompress(blob)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if h.Name != f.Name {
		t.Fatalf("name %q != %q", h.Name, f.Name)
	}
	if !f.SameShape(g) {
		t.Fatalf("shape mismatch: %v vs %v", f.Dims, g.Dims)
	}
	return g, st
}

func assertErrorBound(t *testing.T, orig, recon *field.Field, eb float64) {
	t.Helper()
	for i := range orig.Data {
		if d := math.Abs(orig.Data[i] - recon.Data[i]); d > eb*(1+1e-12) {
			t.Fatalf("error bound violated at %d: |%g − %g| = %g > %g",
				i, orig.Data[i], recon.Data[i], d, eb)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	f := randomField(t, "r1", 0.05, 1000)
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 1})
	assertErrorBound(t, f, g, 1e-3)
}

func TestRoundTrip2D(t *testing.T) {
	f := randomField(t, "r2", 0.05, 50, 60)
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 1})
	assertErrorBound(t, f, g, 1e-3)
}

func TestRoundTrip3D(t *testing.T) {
	f := randomField(t, "r3", 0.05, 20, 25, 30)
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 1})
	assertErrorBound(t, f, g, 1e-3)
}

func TestRoundTripParallelChunksMatchBound(t *testing.T) {
	f := randomField(t, "rp", 0.05, 64, 40)
	for _, workers := range []int{1, 2, 4} {
		g, st := roundTrip(t, f, Options{ErrorBound: 5e-4, Workers: workers})
		assertErrorBound(t, f, g, 5e-4)
		if workers > 1 && st.Chunks < 2 {
			t.Fatalf("workers=%d produced %d chunks", workers, st.Chunks)
		}
	}
}

func TestExplicitChunkRows(t *testing.T) {
	f := randomField(t, "rc", 0.05, 37, 23)
	g, st := roundTrip(t, f, Options{ErrorBound: 1e-3, ChunkRows: 10, Workers: 2})
	assertErrorBound(t, f, g, 1e-3)
	if st.Chunks != 4 { // ceil(37/10)
		t.Fatalf("chunks = %d, want 4", st.Chunks)
	}
}

func TestTightBoundManyUnpredictable(t *testing.T) {
	// Pure noise with a tiny bound and tiny capacity forces literals.
	f := field.New("noise", field.Float64, 500)
	rng := rand.New(rand.NewSource(3))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * 100
	}
	g, st := roundTrip(t, f, Options{ErrorBound: 1e-9, Capacity: 4, Workers: 1})
	assertErrorBound(t, f, g, 1e-9)
	if st.Unpredictable == 0 {
		t.Fatal("expected unpredictable literals with capacity 4")
	}
}

func TestLiteralsAreExact(t *testing.T) {
	f := field.New("spiky", field.Float64, 100)
	for i := range f.Data {
		f.Data[i] = float64(i % 2 * 1000000) // alternating spikes
	}
	g, st := roundTrip(t, f, Options{ErrorBound: 1e-6, Capacity: 4, Workers: 1})
	if st.Unpredictable == 0 {
		t.Fatal("expected literals")
	}
	assertErrorBound(t, f, g, 1e-6)
}

func TestFloat32LiteralsExactForF32Data(t *testing.T) {
	f := field.New("f32", field.Float32, 200)
	rng := rand.New(rand.NewSource(9))
	for i := range f.Data {
		f.Data[i] = float64(float32(rng.NormFloat64() * 1e5))
	}
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-4, Capacity: 4, Workers: 1})
	assertErrorBound(t, f, g, 1e-4)
}

func TestConstantField(t *testing.T) {
	f := field.New("const", field.Float32, 10, 10)
	for i := range f.Data {
		f.Data[i] = 3.25
	}
	g, st := roundTrip(t, f, Options{Workers: 1}) // no bound needed
	for i := range g.Data {
		if g.Data[i] != 3.25 {
			t.Fatalf("constant reconstruction broke at %d: %g", i, g.Data[i])
		}
	}
	if st.Ratio < 10 {
		t.Fatalf("constant field ratio = %g, expected large", st.Ratio)
	}
}

func TestInvalidErrorBound(t *testing.T) {
	f := randomField(t, "bad", 0.1, 32)
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := compress(f, Options{ErrorBound: eb}); err == nil {
			t.Fatalf("expected error for bound %g", eb)
		}
	}
}

func TestInvalidField(t *testing.T) {
	f := &field.Field{Name: "broken", Dims: []int{2, 2}, Data: make([]float64, 3)}
	if _, _, err := compress(f, Options{ErrorBound: 1e-3}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, _, err := codec.Decompress([]byte("not a stream")); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, _, err := codec.Decompress(nil); err == nil {
		t.Fatal("expected error for nil input")
	}
}

func TestDecompressRejectsTruncatedPayload(t *testing.T) {
	f := randomField(t, "trunc", 0.05, 40, 40)
	blob, _, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := codec.Decompress(blob[:len(blob)-10]); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := randomField(t, "hdr-field", 0.05, 30, 30)
	blob, _, err := compress(f, Options{
		ErrorBound: 1e-3, Workers: 1, Mode: codec.ModePSNR, TargetPSNR: 84.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "hdr-field" || h.Mode != codec.ModePSNR || h.TargetPSNR != 84.5 {
		t.Fatalf("header fields lost: %+v", h)
	}
	if h.EbAbs != 1e-3 || h.Codec != codec.IDLorenzo {
		t.Fatalf("header bound/codec lost: %+v", h)
	}
	if h.NPoints() != 900 {
		t.Fatalf("NPoints = %d", h.NPoints())
	}
}

// TestEquationOneIdentity verifies the paper's Eq. 1 exactly:
// X − X̃ == Xpe − X̃pe, where prediction errors are computed against the
// *reconstructed* neighbor values during both phases.
func TestEquationOneIdentity(t *testing.T) {
	f := randomField(t, "eq1", 0.08, 40, 30)
	eb := 2e-3
	q, err := quantizer.New(eb, 1024)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]int32, f.Len())
	work := make([]float64, f.Len())
	literals, _ := compressCore(f.Data, f.Dims, q, codes, work)

	recon := make([]float64, f.Len())
	if err := decompressCore(recon, codes, literals, f.Dims, q); err != nil {
		t.Fatal(err)
	}

	// Recompute predictions from the reconstructed array (identical in
	// both phases), then the two error vectors.
	cols := f.Dims[1]
	li := 0
	for idx := range f.Data {
		i, j := idx/cols, idx%cols
		var a, b, d float64
		if j > 0 {
			a = recon[idx-1]
		}
		if i > 0 {
			b = recon[idx-cols]
			if j > 0 {
				d = recon[idx-cols-1]
			}
		}
		pred := a + b - d
		xpe := f.Data[idx] - pred // compression-phase prediction error
		var xpeRecon float64      // what the decompressor reconstructs
		if codes[idx] == 0 {
			xpeRecon = literals[li] - pred
			li++
		} else {
			xpeRecon = q.Reconstruct(int(codes[idx]))
		}
		lhs := f.Data[idx] - recon[idx]
		rhs := xpe - xpeRecon
		if math.Abs(lhs-rhs) > 1e-15*(1+math.Abs(lhs)) {
			t.Fatalf("Eq. 1 violated at %d: lhs=%g rhs=%g", idx, lhs, rhs)
		}
	}
}

// The quantization-stage MSE must equal the end-to-end MSE (Theorem 1).
func TestTheoremOneMSEEquality(t *testing.T) {
	f := randomField(t, "thm1", 0.08, 35, 28)
	eb := 1e-3
	q, _ := quantizer.New(eb, 4096)
	codes := make([]int32, f.Len())
	work := make([]float64, f.Len())
	literals, _ := compressCore(f.Data, f.Dims, q, codes, work)
	recon := make([]float64, f.Len())
	if err := decompressCore(recon, codes, literals, f.Dims, q); err != nil {
		t.Fatal(err)
	}

	// End-to-end MSE.
	var e2e float64
	for i := range f.Data {
		d := f.Data[i] - recon[i]
		e2e += d * d
	}
	e2e /= float64(f.Len())

	// Quantization-stage MSE: (xpe − x̃pe)² accumulated during the pass.
	cols := f.Dims[1]
	li := 0
	var qmse float64
	for idx := range f.Data {
		i, j := idx/cols, idx%cols
		var a, b, d float64
		if j > 0 {
			a = recon[idx-1]
		}
		if i > 0 {
			b = recon[idx-cols]
			if j > 0 {
				d = recon[idx-cols-1]
			}
		}
		pred := a + b - d
		xpe := f.Data[idx] - pred
		var xpeR float64
		if codes[idx] == 0 {
			xpeR = literals[li] - pred
			li++
		} else {
			xpeR = q.Reconstruct(int(codes[idx]))
		}
		qmse += (xpe - xpeR) * (xpe - xpeR)
	}
	qmse /= float64(f.Len())

	if math.Abs(e2e-qmse) > 1e-12*(1+e2e) {
		t.Fatalf("Theorem 1 violated: end-to-end MSE %g vs quantization MSE %g", e2e, qmse)
	}
}

func TestAutoCapacity(t *testing.T) {
	f := randomField(t, "auto", 0.01, 60, 60)
	blob, st, err := compress(f, Options{ErrorBound: 1e-3, AutoCapacity: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Capacity > quantizer.DefaultCapacity {
		t.Fatalf("auto capacity %d exceeds default", st.Capacity)
	}
	g, _, err := codec.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertErrorBound(t, f, g, 1e-3)
}

func TestCompressionRatioReported(t *testing.T) {
	f := randomField(t, "ratio", 0.02, 100, 100)
	_, st, err := compress(f, Options{ErrorBound: 1e-3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio <= 1 {
		t.Fatalf("ratio = %g, expected > 1 for smooth data", st.Ratio)
	}
	if st.BitRate <= 0 || st.BitRate >= 64 {
		t.Fatalf("bit rate = %g", st.BitRate)
	}
	if st.OriginalBytes != f.SizeBytes() || st.NPoints != f.Len() {
		t.Fatalf("accounting wrong: %+v", st)
	}
}

func TestSmallerBoundLowerRatio(t *testing.T) {
	f := randomField(t, "mono", 0.02, 80, 80)
	_, loose, err := compress(f, Options{ErrorBound: 1e-2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := compress(f, Options{ErrorBound: 1e-6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Ratio <= tight.Ratio {
		t.Fatalf("loose ratio %g should exceed tight ratio %g", loose.Ratio, tight.Ratio)
	}
}

func TestPSNRImprovesWithTighterBound(t *testing.T) {
	f := randomField(t, "psnrmono", 0.02, 60, 60)
	var prev float64 = -1
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		g, _ := roundTrip(t, f, Options{ErrorBound: eb, Workers: 1})
		d := stats.Compare(f.Data, g.Data)
		if d.PSNR <= prev {
			t.Fatalf("PSNR not increasing: %g after %g at eb=%g", d.PSNR, prev, eb)
		}
		prev = d.PSNR
	}
}

func TestNaNValuesSurviveAsLiterals(t *testing.T) {
	f := field.New("nan", field.Float64, 50)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	f.Data[20] = math.NaN()
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 1})
	if !math.IsNaN(g.Data[20]) {
		t.Fatalf("NaN not preserved: %g", g.Data[20])
	}
	// Neighbors of the NaN still within bound (prediction after a NaN
	// neighbor involves NaN arithmetic → those points become literals too).
	for i := range f.Data {
		if i == 20 {
			continue
		}
		if d := math.Abs(f.Data[i] - g.Data[i]); d > 1e-3 {
			t.Fatalf("bound violated at %d: %g", i, d)
		}
	}
}

func TestSingleRowField(t *testing.T) {
	f := randomField(t, "onerow", 0.05, 1, 100)
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 4})
	assertErrorBound(t, f, g, 1e-3)
}

func TestTinyField(t *testing.T) {
	f := field.New("tiny", field.Float64, 1)
	f.Data[0] = 42
	g, _ := roundTrip(t, f, Options{ErrorBound: 1e-3, Workers: 1})
	if g.Data[0] != 42 {
		t.Fatalf("tiny field value = %g", g.Data[0])
	}
}
