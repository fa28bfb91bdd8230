package stats

import (
	"math"
	"testing"
)

func TestHistogramRejectsBadArgs(t *testing.T) {
	if _, err := NewHistogram(1, 1, 4); err == nil {
		t.Fatal("expected error for degenerate bounds")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0, 1.9, 2, 5.5, 9.99, 10, -1, 11})
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10]; 10 lands in the last bin.
	want := []int64{2, 1, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d count = %d, want %d (counts=%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Fatalf("under/over = %d/%d, want 1/1", h.Underflow, h.Overflow)
	}
	if h.Total != 8 {
		t.Fatalf("Total = %d, want 8", h.Total)
	}
	if got := h.InRangeFraction(); !almostEqual(got, 6.0/8.0, 1e-12) {
		t.Fatalf("InRangeFraction = %g", got)
	}
}

func TestHistogramMidpointAndDensity(t *testing.T) {
	h, _ := NewHistogram(-1, 1, 4)
	h.AddAll([]float64{-0.9, -0.8, 0.1})
	if !almostEqual(h.Fraction(0), 2.0/3.0, 1e-12) {
		t.Fatalf("Fraction(0) = %g", h.Fraction(0))
	}
}

func TestHistogramEmptyDensity(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	if h.Fraction(0) != 0 || h.InRangeFraction() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramTopEdge(t *testing.T) {
	h, _ := NewHistogram(0, 1, 10)
	h.Add(1.0) // exactly the top edge
	if h.Counts[9] != 1 || h.Overflow != 0 {
		t.Fatalf("top edge misbinned: counts=%v overflow=%d", h.Counts, h.Overflow)
	}
	h.Add(math.Nextafter(1, 2))
	if h.Overflow != 1 {
		t.Fatal("value just above the top edge should overflow")
	}
}
