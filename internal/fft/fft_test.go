package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Forward computes the in-place forward DFT of x (length must be a power
// of two): X[k] = Σ x[j]·exp(−2πi·jk/N). The tests drive the transform
// kernel through it and build spectra with it.
func Forward(x []complex128) error { return transform(x, false) }

// Inverse computes the in-place inverse DFT of x including the 1/N
// normalization, so Inverse(Forward(x)) == x up to rounding.
func Inverse(x []complex128) error {
	if err := transform(x, true); err != nil {
		return err
	}
	n := float64(len(x))
	for i := range x {
		x[i] /= complex(n, 0)
	}
	return nil
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1023} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048, 0: 1, -3: 1}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for length 3")
	}
}

func TestForwardKnownDFT(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all ones.
	x := []complex128{1, 0, 0, 0}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("X[%d] = %v, want 1", i, v)
		}
	}
	// DFT of constant 1 is a delta at k=0 of height N.
	y := []complex128{1, 1, 1, 1}
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Fatalf("Y[0] = %v, want 4", y[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(y[k]) > 1e-12 {
			t.Fatalf("Y[%d] = %v, want 0", k, y[k])
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	n := 16
	x := randComplex(n, 1)
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			want[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), x...)
	if err := Forward(got); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d > 1e-10 {
		t.Fatalf("max diff vs naive DFT = %g", d)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 512} {
		x := randComplex(n, int64(n))
		orig := append([]complex128(nil), x...)
		if err := Forward(x); err != nil {
			t.Fatal(err)
		}
		if err := Inverse(x); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(x, orig); d > 1e-10 {
			t.Fatalf("n=%d: round-trip max diff %g", n, d)
		}
	}
}

func TestParseval(t *testing.T) {
	n := 256
	x := randComplex(n, 5)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestInverseNDRoundTrip2D(t *testing.T) {
	dims := []int{8, 16}
	n := dims[0] * dims[1]
	x := randComplex(n, 9)
	orig := append([]complex128(nil), x...)
	// Forward along both axes manually, then InverseND must restore.
	// Axis 1 (rows).
	for r := 0; r < dims[0]; r++ {
		row := x[r*dims[1] : (r+1)*dims[1]]
		if err := Forward(row); err != nil {
			t.Fatal(err)
		}
	}
	// Axis 0 (columns).
	col := make([]complex128, dims[0])
	for c := 0; c < dims[1]; c++ {
		for r := 0; r < dims[0]; r++ {
			col[r] = x[r*dims[1]+c]
		}
		if err := Forward(col); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < dims[0]; r++ {
			x[r*dims[1]+c] = col[r]
		}
	}
	if err := InverseND(x, dims, 2); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x, orig); d > 1e-10 {
		t.Fatalf("2-D round trip max diff %g", d)
	}
}

func TestInverseND3DDelta(t *testing.T) {
	dims := []int{4, 4, 4}
	n := 64
	x := make([]complex128, n)
	// Constant spectrum == delta at origin after inverse, scaled by 1/N... a
	// delta spectrum at k=0 gives a constant field of 1/N·N = value 1/N*…:
	// simply verify InverseND of a delta at k=0 with amplitude N is all ones.
	x[0] = complex(float64(n), 0)
	if err := InverseND(x, dims, 1); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestInverseNDValidates(t *testing.T) {
	if err := InverseND(make([]complex128, 6), []int{2, 3}, 1); err == nil {
		t.Fatal("expected error for non-pow2 dimension")
	}
	if err := InverseND(make([]complex128, 7), []int{2, 4}, 1); err == nil {
		t.Fatal("expected error for dims/length mismatch")
	}
}
