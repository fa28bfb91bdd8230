// Package quantizer implements SZ's error-controlled uniform quantization
// (linear-scaling quantization). Prediction errors are mapped to integer
// codes representing uniform bins of width δ = 2·ebabs centered on integer
// multiples of δ; reconstruction uses the bin midpoint, so the pointwise
// error contributed by a quantized code is at most ebabs.
//
// Codes use the SZ convention:
//
//	code 0                     → unpredictable (value stored losslessly)
//	code c ∈ [1, 2R−1]         → quantized, signed index q = c − R
//	                             reconstructed error  q · 2·ebabs
//
// where R is the interval radius (capacity/2).
package quantizer

import (
	"fmt"
	"math"
)

// DefaultCapacity is the default number of quantization intervals (2n in
// the paper's notation). It matches SZ 1.4's default of 65536.
const DefaultCapacity = 65536

// Quantizer maps prediction errors to integer codes under a fixed absolute
// error bound.
type Quantizer struct {
	eb       float64 // absolute error bound (half the bin width)
	delta    float64 // bin width δ = 2·eb
	invDelta float64 // 1/δ, for the reciprocal-multiply fast path
	radius   int     // interval radius R = capacity/2
	limit    float64 // R+1, Quantize's bound on |diff/δ|
}

// New creates a quantizer with the given absolute error bound and interval
// capacity. Capacity must be an even number ≥ 4; non-positive capacity
// selects DefaultCapacity. The error bound must be positive.
func New(ebAbs float64, capacity int) (*Quantizer, error) {
	if !(ebAbs > 0) || math.IsInf(ebAbs, 0) || math.IsNaN(ebAbs) {
		return nil, fmt.Errorf("quantizer: error bound must be positive and finite, got %g", ebAbs)
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < 4 || capacity%2 != 0 {
		return nil, fmt.Errorf("quantizer: capacity must be an even number >= 4, got %d", capacity)
	}
	r := capacity / 2
	return &Quantizer{eb: ebAbs, delta: 2 * ebAbs, invDelta: 1 / (2 * ebAbs), radius: r, limit: float64(r) + 1}, nil
}

// ErrorBound returns the absolute error bound.
func (q *Quantizer) ErrorBound() float64 { return q.eb }

// Delta returns the quantization bin width δ = 2·ebabs.
func (q *Quantizer) Delta() float64 { return q.delta }

// InvDelta returns the precomputed reciprocal bin width 1/δ used by the
// QuantizeRecon binning multiply, for callers hand-inlining that kernel.
func (q *Quantizer) InvDelta() float64 { return q.invDelta }

// Radius returns the interval radius R.
func (q *Quantizer) Radius() int { return q.radius }

// Capacity returns the total number of intervals 2R.
func (q *Quantizer) Capacity() int { return 2 * q.radius }

// Quantize maps a prediction error diff to a code. ok is false when the
// error falls outside the representable interval range (or is not finite),
// in which case the caller must store the value losslessly and emit
// code 0.
//
// The index is diff/δ (a true divide, not the reciprocal multiply of
// QuantizeRecon) rounded half away from zero, the rounding of
// math.Round, so every code matches that form bit for bit. The rounding
// runs without math.Round's exponent branches, which mispredict on
// transform coefficients: the guard |t| < R+1 sends NaN, ±Inf and every
// out-of-range quotient to the literal path first, so t truncates to an
// int exactly, t minus that truncation is its exact fractional part (the
// truncation is 0 or within a factor of two of t), and a fractional part
// of at least ½ in magnitude steps the index one away from zero. It is
// small enough to inline into the transform pipeline's quantize loop.
func (q *Quantizer) Quantize(diff float64) (code int, ok bool) {
	t := diff / q.delta
	if !(t < q.limit && t > -q.limit) {
		return 0, false
	}
	i := int(t)
	f := t - float64(i)
	if f >= 0.5 {
		i++
	}
	if f <= -0.5 {
		i--
	}
	// |q| must stay strictly below R so the code fits [1, 2R−1].
	code = i + q.radius
	if uint(code-1) >= uint(2*q.radius-1) {
		return 0, false
	}
	return code, true
}

// RoundMagic implements round-to-nearest (ties to even) by pushing the
// value into the [2^52, 2^53) binade, where the floating-point grid
// spacing is exactly 1: adding and subtracting 1.5·2^52 leaves the
// nearest integer. Valid for |t| < 2^51, far beyond any radius.
// Exported for callers that hand-inline the QuantizeRecon kernel into
// their prediction loops (see internal/sz).
const RoundMagic = 3 << 51

const roundMagic = RoundMagic

// QuantizeRecon is the compression-loop fast path: it quantizes diff and
// also returns the reconstructed prediction error rec (what Reconstruct
// of the code would produce), computed without leaving the float domain.
// The binning multiplies by the precomputed 1/δ instead of dividing —
// one or two ulps cheaper than the quotient, which can land a borderline
// diff in the neighboring bin — so the error bound is enforced the only
// way that is airtight under any binning: by checking the reconstruction
// itself. ok is false (store the value losslessly) when |diff − rec|
// exceeds the bound or the index leaves the representable range;
// non-finite inputs fail the comparisons and reject naturally. The
// residual err = diff − rec (the exact pointwise reconstruction error)
// comes back for free — callers accumulating distortion use it instead
// of re-deriving the error in a second pass over the data.
// The binning itself fuses the scale and the magic-constant add
// (math.FMA) — one rounding instead of two, which both shortens the
// serial dependency chain and is still a valid round-to-nearest of some
// quotient near diff/δ; rec stays a plain (unfused) multiply because the
// decoder reconstructs with exactly that expression.
func (q *Quantizer) QuantizeRecon(diff float64) (code int, rec, err float64, ok bool) {
	idx := math.FMA(diff, q.invDelta, roundMagic) - roundMagic
	rec = idx * q.delta
	err = diff - rec
	if !(idx < float64(q.radius) && idx > -float64(q.radius) &&
		err <= q.eb && err >= -q.eb) {
		return 0, 0, 0, false
	}
	return int(idx) + q.radius, rec, err, true
}

// Reconstruct returns the decoded prediction error for a non-zero code:
// the midpoint of the code's bin.
func (q *Quantizer) Reconstruct(code int) float64 {
	return float64(code-q.radius) * q.delta
}
