package stats

import "fmt"

// Histogram is a uniform-bin histogram over a closed interval [Lo, Hi].
// It backs Figure 1, the prediction-error distribution plot.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	Total  int64
	// Underflow and Overflow count samples outside [Lo, Hi].
	Underflow, Overflow int64
}

// NewHistogram creates a histogram with the given bounds and bin count.
// It returns an error for degenerate bounds or a non-positive bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram bounds [%g, %g] are degenerate", lo, hi)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("stats: histogram needs a positive bin count, got %d", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}, nil
}

// Add folds one sample into the histogram.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		// The top edge belongs to the last bin so that Hi itself is
		// representable.
		if x == h.Hi {
			h.Counts[len(h.Counts)-1]++
		} else {
			h.Overflow++
		}
	default:
		w := (h.Hi - h.Lo) / float64(len(h.Counts))
		i := int((x - h.Lo) / w)
		if i >= len(h.Counts) { // guard float rounding at the top edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddAll folds a slice of samples into the histogram.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Fraction returns the fraction of all samples that landed in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// InRangeFraction returns the fraction of samples that fell inside
// [Lo, Hi].
func (h *Histogram) InRangeFraction() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Total-h.Underflow-h.Overflow) / float64(h.Total)
}
