package quantizer

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0, 64); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := New(-1, 64); err == nil {
		t.Fatal("expected error for negative bound")
	}
	if _, err := New(math.NaN(), 64); err == nil {
		t.Fatal("expected error for NaN bound")
	}
	if _, err := New(math.Inf(1), 64); err == nil {
		t.Fatal("expected error for Inf bound")
	}
	if _, err := New(1, 5); err == nil {
		t.Fatal("expected error for odd capacity")
	}
	if _, err := New(1, 2); err == nil {
		t.Fatal("expected error for capacity < 4")
	}
	q, err := New(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != DefaultCapacity {
		t.Fatalf("default capacity = %d", q.Capacity())
	}
}

func TestAccessors(t *testing.T) {
	q, _ := New(0.5, 1024)
	if q.ErrorBound() != 0.5 || q.Delta() != 1.0 || q.Radius() != 512 || q.Capacity() != 1024 {
		t.Fatalf("accessors: eb=%g delta=%g radius=%d cap=%d",
			q.ErrorBound(), q.Delta(), q.Radius(), q.Capacity())
	}
}

func TestQuantizeKnownValues(t *testing.T) {
	q, _ := New(0.5, 8) // delta=1, radius=4, codes 1..7
	cases := []struct {
		diff float64
		code int
		ok   bool
	}{
		{0, 4, true},
		{0.4, 4, true},
		{0.6, 5, true},
		{-0.6, 3, true},
		{2.9, 7, true},
		{3.6, 0, false}, // rounds to 4 == radius → out of range
		{-3.6, 0, false},
		{100, 0, false},
	}
	for _, c := range cases {
		code, ok := q.Quantize(c.diff)
		if code != c.code || ok != c.ok {
			t.Fatalf("Quantize(%g) = (%d, %v), want (%d, %v)", c.diff, code, ok, c.code, c.ok)
		}
	}
}

func TestQuantizeNonFinite(t *testing.T) {
	q, _ := New(1, 8)
	if _, ok := q.Quantize(math.NaN()); ok {
		t.Fatal("NaN should be unpredictable")
	}
	if _, ok := q.Quantize(math.Inf(1)); ok {
		t.Fatal("+Inf should be unpredictable")
	}
}

func TestReconstructMidpoint(t *testing.T) {
	q, _ := New(0.5, 8)
	if got := q.Reconstruct(4); got != 0 {
		t.Fatalf("Reconstruct(center) = %g", got)
	}
	if got := q.Reconstruct(5); got != 1 {
		t.Fatalf("Reconstruct(5) = %g, want 1 (= delta)", got)
	}
	if got := q.Reconstruct(1); got != -3 {
		t.Fatalf("Reconstruct(1) = %g, want -3", got)
	}
}

// Property: for any finite diff, either the code is 0 (unpredictable) or
// |diff − Reconstruct(code)| ≤ eb and 1 ≤ code ≤ capacity−1.
func TestErrorBoundProperty(t *testing.T) {
	q, _ := New(0.25, 256)
	if err := quick.Check(func(diff float64) bool {
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return true
		}
		code, ok := q.Quantize(diff)
		if !ok {
			return code == 0
		}
		if code < 1 || code > q.Capacity()-1 {
			return false
		}
		// Allow half-ulp slack for |diff| huge relative to eb — such
		// diffs are out of range anyway, so reaching here means the
		// arithmetic is well-conditioned.
		return math.Abs(diff-q.Reconstruct(code)) <= q.ErrorBound()*(1+1e-12)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is monotone — larger diffs never get smaller
// codes (within range).
func TestMonotoneProperty(t *testing.T) {
	q, _ := New(0.5, 64)
	prevCode := 0
	for diff := -15.0; diff <= 15.0; diff += 0.01 {
		code, ok := q.Quantize(diff)
		if !ok {
			continue
		}
		if prevCode != 0 && code < prevCode {
			t.Fatalf("monotonicity violated near diff=%g", diff)
		}
		prevCode = code
	}
}

func TestBoundaryRounding(t *testing.T) {
	// A diff exactly at a bin boundary (odd multiple of eb) rounds away
	// from zero with math.Round; either neighbor keeps the error ≤ eb.
	q, _ := New(0.5, 16)
	code, ok := q.Quantize(0.5)
	if !ok {
		t.Fatal("0.5 should be in range")
	}
	if err := math.Abs(0.5 - q.Reconstruct(code)); err > 0.5 {
		t.Fatalf("boundary error %g > eb", err)
	}
}
