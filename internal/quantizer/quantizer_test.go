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

// refQuantize is Quantize's former form, FuzzQuantizeRound's reference:
// a non-finite check, then diff/δ rounded by math.Round and compared
// against the radius as a float.
func refQuantize(q *Quantizer, diff float64) (code int, ok bool) {
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return 0, false
	}
	idx := math.Round(diff / q.delta)
	if idx >= float64(q.radius) || idx <= -float64(q.radius) {
		return 0, false
	}
	return int(idx) + q.radius, true
}

// FuzzQuantizeRound holds Quantize's truncate-and-step rounding to the
// math.Round form for every diff, error bound and capacity from 4 to
// 2^30: the same code and the same ok, so no stream byte can move. Each
// input is also moved onto the nearest exact half of δ below it, the
// case the rounding direction decides.
func FuzzQuantizeRound(f *testing.F) {
	const capExp64K = 14 // 4<<14 = 65536, R = 32768
	for _, h := range []float64{0.5, 1.5, 2.5, 3.5, 100.5, 32767.5} {
		f.Add(h, 0.5, uint8(capExp64K)) // exact halves of δ = 1
		f.Add(-h, 0.5, uint8(capExp64K))
		f.Add(h*0.6, 0.3, uint8(capExp64K)) // halves of a δ that is no power of two
	}
	for _, k := range []uint8{0, 3, capExp64K, 28} {
		r := float64(int(2) << k)
		for _, d := range []float64{r - 0.5, r + 0.5, -r + 0.5, -r - 0.5} {
			f.Add(d, 0.5, k) // ±R ± ½
		}
	}
	f.Add(math.Copysign(0, -1), 0.5, uint8(capExp64K))
	f.Add(math.NaN(), 0.5, uint8(capExp64K))
	f.Add(math.Inf(1), 0.5, uint8(capExp64K))
	f.Add(math.Inf(-1), 0.5, uint8(capExp64K))
	f.Add(math.SmallestNonzeroFloat64, 0.5, uint8(capExp64K))
	f.Add(-math.SmallestNonzeroFloat64, 1e-300, uint8(capExp64K))
	f.Add(5*math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, uint8(capExp64K)) // t = 2.5 on subnormals
	f.Add(float64(1<<52), 0.5, uint8(28))
	f.Add(float64(1<<52)-0.5, 0.5, uint8(28))
	f.Add(-float64(1<<52), 0.5, uint8(28))
	f.Fuzz(func(t *testing.T, diff, eb float64, capExp uint8) {
		eb = math.Abs(eb)
		if !(eb > 0) || math.IsInf(2*eb, 0) {
			eb = 0.5
		}
		q, err := New(eb, 4<<(capExp%29))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{diff, (math.Floor(diff/q.delta) + 0.5) * q.delta} {
			code, ok := q.Quantize(d)
			wantCode, wantOK := refQuantize(q, d)
			if code != wantCode || ok != wantOK {
				t.Fatalf("Quantize(%v) at δ=%v, R=%d = (%d, %v), want (%d, %v)",
					d, q.delta, q.radius, code, ok, wantCode, wantOK)
			}
		}
	})
}
