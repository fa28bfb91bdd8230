package otc

import (
	"math"
	"math/rand"
	"testing"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
	"fixedpsnr/internal/field"
	"fixedpsnr/internal/stats"
)

func smoothField(name string, noise float64, dims ...int) *field.Field {
	f := field.New(name, field.Float64, dims...)
	rng := rand.New(rand.NewSource(int64(f.Len())))
	switch len(dims) {
	case 1:
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)/15) + noise*rng.NormFloat64()
		}
	case 2:
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				f.Set2(i, j, math.Sin(float64(i)/10)*math.Cos(float64(j)/13)+noise*rng.NormFloat64())
			}
		}
	case 3:
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for k := 0; k < dims[2]; k++ {
					f.Set3(i, j, k, math.Sin(float64(i)/4)*math.Cos(float64(j)/6)*math.Sin(float64(k)/5)+noise*rng.NormFloat64())
				}
			}
		}
	}
	return f
}

func TestBlockGridCoversField(t *testing.T) {
	for _, dims := range [][]int{{17}, {10, 13}, {5, 9, 12}} {
		g := newBlockGrid(dims, 4)
		covered := make(map[int]int)
		inner := func(br blockRange) {
			// Enumerate all flat indices in the block.
			switch len(dims) {
			case 1:
				for i := 0; i < br.size[0]; i++ {
					covered[br.off[0]+i]++
				}
			case 2:
				for i := 0; i < br.size[0]; i++ {
					for j := 0; j < br.size[1]; j++ {
						covered[(br.off[0]+i)*dims[1]+br.off[1]+j]++
					}
				}
			case 3:
				for i := 0; i < br.size[0]; i++ {
					for j := 0; j < br.size[1]; j++ {
						for k := 0; k < br.size[2]; k++ {
							covered[((br.off[0]+i)*dims[1]+br.off[1]+j)*dims[2]+br.off[2]+k]++
						}
					}
				}
			}
		}
		total := 1
		for _, d := range dims {
			total *= d
		}
		pos := 0
		for bi := range g.len() {
			br := g.block(bi)
			// Codes follow grid order: each block starts where the
			// previous one ended.
			if br.pos != pos {
				t.Fatalf("dims %v: block %d codes start at %d, want %d", dims, bi, br.pos, pos)
			}
			pos += br.n
			inner(br)
		}
		if len(covered) != total {
			t.Fatalf("dims %v: covered %d of %d points", dims, len(covered), total)
		}
		for idx, c := range covered {
			if c != 1 {
				t.Fatalf("dims %v: point %d covered %d times", dims, idx, c)
			}
		}
	}
}

// With ChunkRows and ChunkPoints unset, otc tiles like the container's
// default, ⌈rows/Workers⌉ rows per chunk rounded up to the block edge: a
// field of at least Workers·edge rows gets more than one chunk, each
// starting on a block edge, and Workers 1 gets one chunk.
func TestChunkSpansDefaultFollowsWorkers(t *testing.T) {
	for _, b := range []int{3, 8} {
		for w := 1; w <= 6; w++ {
			for rows := w * b; rows <= (w+2)*b; rows++ {
				spans := otcCodec{}.ChunkSpans([]int{rows, 5}, Options{Workers: w, BlockSize: b})
				if (len(spans) > 1) != (w > 1) {
					t.Fatalf("edge %d, %d workers, %d rows: %d chunks", b, w, rows, len(spans))
				}
				lo := 0
				for _, s := range spans {
					if s[0] != lo || s[0]%b != 0 || s[1] <= s[0] {
						t.Fatalf("edge %d, %d workers, %d rows: spans %v", b, w, rows, spans)
					}
					lo = s[1]
				}
				if lo != rows {
					t.Fatalf("edge %d, %d workers, %d rows: spans %v end at %d", b, w, rows, spans, lo)
				}
			}
		}
	}
}

func TestGatherScatterInverse(t *testing.T) {
	dims := []int{6, 7, 8}
	src := make([]float64, 6*7*8)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, len(src))
	g := newBlockGrid(dims, 4)
	zero := []int{0, 0, 0}
	for bi := range g.len() {
		br := g.block(bi)
		buf := make([]float64, br.n)
		field.CopyRegion(buf, br.size[:], zero, src, dims, br.off[:], br.size[:])
		field.CopyRegion(dst, dims, br.off[:], buf, br.size[:], zero, br.size[:])
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("gather/scatter mismatch at %d", i)
		}
	}
}

func TestForwardInverseBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tr := range []Transform{TransformDCT, TransformHaar} {
		for _, sizes := range [][]int{{5}, {4, 4}, {3, 5}, {4, 4, 4}, {2, 3, 5}, {8, 8}} {
			n := 1
			for _, s := range sizes {
				n *= s
			}
			buf := make([]float64, n)
			tmp := make([]float64, n)
			orig := make([]float64, n)
			for i := range buf {
				buf[i] = rng.NormFloat64()
				orig[i] = buf[i]
			}
			buf, err := applyBlock(buf, tmp, sizes, tr, false)
			if err != nil {
				t.Fatal(err)
			}
			// Parseval inside the block — Theorem 2's hypothesis holds
			// for both transform families.
			var e0, e1 float64
			for i := range buf {
				e0 += orig[i] * orig[i]
				e1 += buf[i] * buf[i]
			}
			if math.Abs(e0-e1) > 1e-10*(1+e0) {
				t.Fatalf("%v sizes %v: block Parseval violated (%g vs %g)", tr, sizes, e0, e1)
			}
			tmp = make([]float64, n)
			buf, err = applyBlock(buf, tmp, sizes, tr, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if math.Abs(buf[i]-orig[i]) > 1e-12 {
					t.Fatalf("%v sizes %v: round-trip diff at %d", tr, sizes, i)
				}
			}
		}
	}
}

func roundTrip(t *testing.T, f *field.Field, opt Options) (*field.Field, *codec.Stats) {
	t.Helper()
	blob, st, err := compress(f, opt)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	g, h, err := codec.Decompress(blob)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if h.Name != f.Name || !f.SameShape(g) {
		t.Fatalf("metadata mismatch")
	}
	return g, st
}

func TestRoundTrip2D(t *testing.T) {
	f := smoothField("otc2", 0.01, 40, 50)
	g, st := roundTrip(t, f, Options{ErrorBound: 5e-4, Workers: 1})
	d := stats.Compare(f.Data, g.Data)
	if d.MaxErr > 1 {
		t.Fatalf("wild reconstruction error %g", d.MaxErr)
	}
	if st.Chunks != 1 || st.Ratio <= 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRoundTrip1D3D(t *testing.T) {
	for _, dims := range [][]int{{333}, {9, 20, 17}} {
		f := smoothField("otcn", 0.01, dims...)
		g, _ := roundTrip(t, f, Options{ErrorBound: 5e-4, Workers: 2})
		d := stats.Compare(f.Data, g.Data)
		if d.PSNR < 40 {
			t.Fatalf("dims %v: PSNR %g too low", dims, d.PSNR)
		}
	}
}

// Theorem 2 in action: for the orthonormal-transform pipeline, the
// end-to-end MSE equals the coefficient-domain quantization MSE, so the
// Eq. 8 bound (Eq. 6 with δ = 2·ebabs on coefficients) predicts the
// data-domain PSNR.
func TestTheorem2FixedPSNR(t *testing.T) {
	f := smoothField("thm2", 0.05, 64, 64)
	_, _, vr := f.ValueRange()
	for _, target := range []float64{50, 70, 90} {
		g, _ := roundTrip(t, f, Options{ErrorBound: core.RelBoundForPSNR(target) * vr, Workers: 1})
		d := stats.Compare(f.Data, g.Data)
		// The uniform-within-bin assumption makes the estimate
		// conservative; actual PSNR must be ≥ target − 1 dB and within
		// a few dB above it for mid/high targets.
		if d.PSNR < target-1 {
			t.Fatalf("target %g: actual %g fell below", target, d.PSNR)
		}
		if d.PSNR > target+15 {
			t.Fatalf("target %g: actual %g suspiciously high (estimator broken?)", target, d.PSNR)
		}
	}
}

func TestConstantField(t *testing.T) {
	f := field.New("const", field.Float32, 8, 8)
	for i := range f.Data {
		f.Data[i] = -2.5
	}
	g, _ := roundTrip(t, f, Options{Workers: 1})
	for i := range g.Data {
		if g.Data[i] != -2.5 {
			t.Fatal("constant reconstruction broke")
		}
	}
}

func TestInvalidDelta(t *testing.T) {
	f := smoothField("bad", 0.01, 16, 16)
	for _, delta := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := compress(f, Options{ErrorBound: delta}); err == nil {
			t.Fatalf("expected error for delta %g", delta)
		}
	}
}

func TestHeaderCodecIsOTC(t *testing.T) {
	f := smoothField("hdr", 0.01, 16, 16)
	blob, _, err := compress(f, Options{ErrorBound: 5e-4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := codec.ParseHeader(blob)
	if err != nil {
		t.Fatal(err)
	}
	if h.Codec != codec.IDOTC {
		t.Fatalf("codec = %v", h.Codec)
	}
}

func TestLiteralCoefficientsPreserved(t *testing.T) {
	// Huge DC coefficients with a tiny capacity force literals.
	f := smoothField("lit", 0.01, 32, 32)
	for i := range f.Data {
		f.Data[i] += 1e6
	}
	g, st := roundTrip(t, f, Options{ErrorBound: 5e-5, Capacity: 4, Workers: 1})
	if st.Unpredictable == 0 {
		t.Fatal("expected literal coefficients")
	}
	d := stats.Compare(f.Data, g.Data)
	if d.PSNR < 40 {
		t.Fatalf("PSNR %g with literals", d.PSNR)
	}
}

func TestBlockSizeOption(t *testing.T) {
	f := smoothField("bs", 0.01, 30, 30)
	for _, bs := range []int{2, 4, 8, 16} {
		g, _ := roundTrip(t, f, Options{ErrorBound: 5e-4, BlockSize: bs, Workers: 1})
		d := stats.Compare(f.Data, g.Data)
		if d.PSNR < 40 {
			t.Fatalf("block size %d: PSNR %g", bs, d.PSNR)
		}
	}
}

func TestHaarPipelineRoundTrip(t *testing.T) {
	f := smoothField("haar", 0.02, 48, 56)
	g, st := roundTrip(t, f, Options{ErrorBound: 5e-4, Transform: TransformHaar, Workers: 1})
	d := stats.Compare(f.Data, g.Data)
	if d.PSNR < 40 {
		t.Fatalf("Haar pipeline PSNR %g", d.PSNR)
	}
	if st.Ratio <= 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHaarPipelineFixedPSNR(t *testing.T) {
	f := smoothField("haarpsnr", 0.05, 64, 64)
	_, _, vr := f.ValueRange()
	for _, target := range []float64{50, 80} {
		g, _ := roundTrip(t, f, Options{ErrorBound: core.RelBoundForPSNR(target) * vr, Transform: TransformHaar, Workers: 1})
		d := stats.Compare(f.Data, g.Data)
		if d.PSNR < target-1 {
			t.Fatalf("target %g: Haar actual %g fell below", target, d.PSNR)
		}
	}
}

func TestTransformString(t *testing.T) {
	if TransformDCT.String() != "dct" || TransformHaar.String() != "haar" {
		t.Fatal("transform names wrong")
	}
	if Transform(9).String() == "" {
		t.Fatal("unknown transform should render")
	}
}
