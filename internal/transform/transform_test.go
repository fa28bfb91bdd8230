package transform

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func l2(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s)
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNewDCTValidates(t *testing.T) {
	if _, err := NewDCT(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewDCT(-3); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestDCTSize1Identity(t *testing.T) {
	d, err := NewDCT(1)
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{3.5}
	dst := make([]float64, 1)
	d.Forward(dst, src)
	if math.Abs(dst[0]-3.5) > 1e-14 {
		t.Fatalf("1-point DCT = %g", dst[0])
	}
}

// The DCT basis must be orthonormal: B·Bᵀ = I.
func TestDCTOrthonormal(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		d, err := NewDCT(n)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				var dot float64
				for j := 0; j < n; j++ {
					dot += d.basis[a*n+j] * d.basis[b*n+j]
				}
				want := 0.0
				if a == b {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-12 {
					t.Fatalf("n=%d: <b%d,b%d> = %g, want %g", n, a, b, dot, want)
				}
			}
		}
	}
}

func TestDCTRoundTrip1D(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		d, _ := NewDCT(n)
		src := randSlice(n, int64(n))
		coef := make([]float64, n)
		back := make([]float64, n)
		d.Forward(coef, src)
		d.Inverse(back, coef)
		if diff := maxAbsDiff(src, back); diff > 1e-12 {
			t.Fatalf("n=%d: round-trip diff %g", n, diff)
		}
	}
}

// Parseval: the transform preserves the l2 norm — the hypothesis of the
// paper's Theorem 2.
func TestDCTParseval1D(t *testing.T) {
	d, _ := NewDCT(16)
	src := randSlice(16, 2)
	coef := make([]float64, 16)
	d.Forward(coef, src)
	if math.Abs(l2(src)-l2(coef)) > 1e-12*l2(src) {
		t.Fatalf("Parseval violated: %g vs %g", l2(src), l2(coef))
	}
}

func TestDCT3DRoundTripAndParseval(t *testing.T) {
	n := 4
	d, _ := NewDCT(n)
	src := randSlice(n*n*n, 4)
	coef := make([]float64, n*n*n)
	back := make([]float64, n*n*n)
	d.Forward3D(coef, src)
	if math.Abs(l2(src)-l2(coef)) > 1e-12*l2(src) {
		t.Fatalf("3D Parseval violated")
	}
	d.Inverse3D(back, coef)
	if diff := maxAbsDiff(src, back); diff > 1e-12 {
		t.Fatalf("3D round-trip diff %g", diff)
	}
}

func TestDCTConstantMapsToDC(t *testing.T) {
	n := 8
	d, _ := NewDCT(n)
	src := make([]float64, n)
	for i := range src {
		src[i] = 2
	}
	coef := make([]float64, n)
	d.Forward(coef, src)
	if math.Abs(coef[0]-2*math.Sqrt(float64(n))) > 1e-12 {
		t.Fatalf("DC = %g, want %g", coef[0], 2*math.Sqrt(float64(n)))
	}
	for k := 1; k < n; k++ {
		if math.Abs(coef[k]) > 1e-12 {
			t.Fatalf("AC coefficient %d = %g, want 0", k, coef[k])
		}
	}
}

func TestHaarValidates(t *testing.T) {
	if err := HaarForward(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for non-pow2 length")
	}
	if err := HaarForward(make([]float64, 8), 4); err == nil {
		t.Fatal("expected error for too many levels")
	}
	if err := HaarForward(make([]float64, 8), -1); err == nil {
		t.Fatal("expected error for negative levels")
	}
	if err := HaarInverse(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for non-pow2 length in inverse")
	}
	if err := HaarInverse(make([]float64, 8), 9); err == nil {
		t.Fatal("expected error for too many levels in inverse")
	}
}

func TestHaarRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64} {
		maxLevels := 0
		for m := n; m > 1; m >>= 1 {
			maxLevels++
		}
		for levels := 0; levels <= maxLevels; levels++ {
			src := randSlice(n, int64(n*10+levels))
			x := append([]float64(nil), src...)
			if err := HaarForward(x, levels); err != nil {
				t.Fatal(err)
			}
			if err := HaarInverse(x, levels); err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(src, x); diff > 1e-12 {
				t.Fatalf("n=%d levels=%d: round-trip diff %g", n, levels, diff)
			}
		}
	}
}

func TestHaarParseval(t *testing.T) {
	src := randSlice(256, 7)
	x := append([]float64(nil), src...)
	if err := HaarForward(x, 8); err != nil {
		t.Fatal(err)
	}
	if math.Abs(l2(src)-l2(x)) > 1e-12*l2(src) {
		t.Fatalf("Haar Parseval violated: %g vs %g", l2(src), l2(x))
	}
}

func TestHaarKnownValues(t *testing.T) {
	x := []float64{1, 3, 5, 7}
	if err := HaarForward(x, 1); err != nil {
		t.Fatal(err)
	}
	want := []float64{4 * invSqrt2, 12 * invSqrt2, -2 * invSqrt2, -2 * invSqrt2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("Haar[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// gatherLine and scatterLine move line (o, s) of a row-major
// [outer][n][stride] view in and out of a contiguous vector.
func gatherLine(line, x []float64, o, n, stride, s int) {
	for j := range line {
		line[j] = x[(o*n+j)*stride+s]
	}
}

func scatterLine(x, line []float64, o, n, stride, s int) {
	for j, v := range line {
		x[(o*n+j)*stride+s] = v
	}
}

// The axis kernels must match the one-vector transforms on every line,
// bit for bit, across the tile remainders: sizes and strides that are
// and are not multiples of the tile widths, odd and even line counts.
func TestAxisKernelsMatchOneVector(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
		d, err := NewDCT(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, outer := range []int{1, 2, 3} {
			for _, stride := range []int{1, 2, 3, 5, 8, 9} {
				src := randSlice(outer*n*stride, int64(n*100+outer*10+stride))
				line := make([]float64, n)
				want := make([]float64, n)
				check := func(name string, got []float64, ref func(dst, src []float64)) {
					t.Helper()
					for o := 0; o < outer; o++ {
						for s := 0; s < stride; s++ {
							gatherLine(line, src, o, n, stride, s)
							ref(want, line)
							for j := range want {
								if g := got[(o*n+j)*stride+s]; math.Float64bits(g) != math.Float64bits(want[j]) {
									t.Fatalf("%s n=%d outer=%d stride=%d line (%d,%d)[%d] = %v, one-vector %v",
										name, n, outer, stride, o, s, j, g, want[j])
								}
							}
						}
					}
				}
				got := make([]float64, len(src))
				d.ForwardAxis(got, src, outer, stride)
				check("ForwardAxis", got, d.Forward)
				d.InverseAxis(got, src, outer, stride)
				check("InverseAxis", got, d.Inverse)
				if n&(n-1) != 0 {
					continue
				}
				tmp := make([]float64, len(src))
				haar := func(inverse bool) func(dst, src []float64) {
					return func(dst, src []float64) {
						copy(dst, src)
						var err error
						if inverse {
							err = HaarInverse(dst, bits.Len(uint(n))-1)
						} else {
							err = HaarForward(dst, bits.Len(uint(n))-1)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				copy(got, src)
				if err := HaarForwardAxis(got, tmp, outer, n, stride); err != nil {
					t.Fatal(err)
				}
				check("HaarForwardAxis", got, haar(false))
				copy(got, src)
				if err := HaarInverseAxis(got, tmp, outer, n, stride); err != nil {
					t.Fatal(err)
				}
				check("HaarInverseAxis", got, haar(true))
			}
		}
	}
	if err := HaarForwardAxis(make([]float64, 6), make([]float64, 6), 1, 3, 2); err == nil {
		t.Fatal("HaarForwardAxis accepted a non-power-of-two length")
	}
	if err := HaarInverseAxis(make([]float64, 6), make([]float64, 6), 1, 6, 1); err == nil {
		t.Fatal("HaarInverseAxis accepted a non-power-of-two length")
	}
}

// Forward3D applies Forward along each axis, fastest first.
func TestDCT3DMatchesAxes(t *testing.T) {
	n := 5
	d, _ := NewDCT(n)
	src := randSlice(n*n*n, 9)
	want := append([]float64(nil), src...)
	line := make([]float64, n)
	out := make([]float64, n)
	for _, stride := range []int{1, n, n * n} {
		outer := n * n / stride
		for o := 0; o < outer; o++ {
			for s := 0; s < stride; s++ {
				gatherLine(line, want, o, n, stride, s)
				d.Forward(out, line)
				scatterLine(want, out, o, n, stride, s)
			}
		}
	}
	got := make([]float64, len(src))
	d.Forward3D(got, src)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Forward3D[%d] = %v, per-axis Forward %v", i, got[i], want[i])
		}
	}
}
