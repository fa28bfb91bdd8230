package plan

import (
	"fmt"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
)

// Default steering knobs. DefaultToleranceDB and DefaultMaxPasses are the
// calibrated fixed-PSNR loop's historical constants; ratio steering gets a
// wider pass budget because it always needs at least one solver step (no
// closed-form Eq. 8 exists for the rate curve) and its secant converges
// from a data-blind first guess.
const (
	// DefaultToleranceDB is the fixed-PSNR acceptance band around the
	// target, in dB.
	DefaultToleranceDB = 0.5
	// DefaultMaxPasses bounds the extra compressions the calibrated
	// fixed-PSNR loop may take.
	DefaultMaxPasses = 3
	// DefaultRatioTolerance is the fixed-ratio acceptance band as a
	// fraction of the target ratio.
	DefaultRatioTolerance = 0.05
	// DefaultRatioMaxPasses bounds the extra compressions the
	// fixed-ratio loop may take.
	DefaultRatioMaxPasses = 8
)

// Tuning carries the user-adjustable steering knobs shared by every
// target. Zero values select the per-target defaults above.
type Tuning struct {
	// ToleranceDB is the fixed-PSNR acceptance band in dB.
	ToleranceDB float64
	// RatioTolerance is the fixed-ratio acceptance band as a fraction of
	// the target ratio.
	RatioTolerance float64
	// MaxPasses bounds the extra compression passes any target may take.
	MaxPasses int
}

// Pass records one compression pass the steering loop made: the absolute
// bound the codec ran with and the target statistic measured from the
// pass.
type Pass struct {
	Bound    float64
	Measured float64
}

// Target is one steerable quality goal: it owns the statistic the loop
// measures, the acceptance test, and the solver that proposes the next
// absolute bound. Codecs know nothing about targets — they compress at a
// bound and report statistics — which is what lets one loop serve fixed
// PSNR, fixed ratio, and future targets, field-wide and per region
// group, without touching any pipeline.
type Target interface {
	// ReadsBytes reports whether the statistic is read from compressed
	// bytes. A target that reads none steers on distortion, measured
	// from the quantization stage's chunk statistics, which Theorem 1
	// makes final: the steering loops leave its passes' chunks
	// quantized and entropy-code only the pass they return, and a
	// chunk with zero recorded MSE is final under it — exact chunks
	// reconstruct identically at any bound, so their state is kept
	// verbatim across passes. A target that reads bytes must
	// recompress them (a coarser bound shrinks even an exact chunk).
	ReadsBytes() bool
	// Measure extracts the steering statistic from the aggregate stats
	// of one assembled stream; Drive measures a target that reads bytes
	// through it.
	Measure(st *codec.Stats) float64
	// MeasureGroup extracts the steering statistic from the chunks
	// listed in subset of a (possibly mid-steering) chunk table. The
	// header's chunk entries must carry current MSE values, and current
	// Len values when the target reads bytes.
	MeasureGroup(h *codec.Header, subset []int) float64
	// Solve inspects the pass history (oldest first, most recent last)
	// and either accepts the latest pass (done) or proposes the next
	// absolute bound. An error aborts the compression loudly — silently
	// shipping an off-target stream is the one forbidden outcome.
	Solve(history []Pass) (next float64, done bool, err error)
	// MaxPasses bounds the extra compressions the loop may take.
	MaxPasses() int
}

// BuildTarget constructs the steering target for the request, or nil when
// the request needs no steering: single-pass modes, uncalibrated
// fixed-PSNR, codecs that cannot measure the statistic, and constant
// fields (vr == 0), whose streams are final after one pass.
func (r Request) BuildTarget(c codec.Codec, vr float64) Target {
	if !(vr > 0) {
		return nil
	}
	switch r.Mode {
	case ModePSNR:
		if !r.Calibrated || !c.MeasuresMSE() {
			return nil
		}
		return NewPSNRTarget(r.TargetPSNR, vr, r.Tuning)
	case ModeRatio:
		return NewRatioTarget(r.TargetRatio, r.BitsPerValue, r.Tuning)
	default:
		return nil
	}
}

// psnrTarget is the calibrated fixed-PSNR goal: steer the bin width until
// the measured global MSE lands within ±tolDB of the target PSNR.
type psnrTarget struct {
	targetPSNR float64
	targetMSE  float64
	vr         float64
	tolDB      float64
	maxPasses  int
}

// NewPSNRTarget builds the calibrated fixed-PSNR target for data of value
// range vr.
func NewPSNRTarget(targetPSNR, vr float64, tn Tuning) Target {
	t := &psnrTarget{
		targetPSNR: targetPSNR,
		targetMSE:  core.MSEForPSNR(targetPSNR, vr),
		vr:         vr,
		tolDB:      tn.ToleranceDB,
		maxPasses:  tn.MaxPasses,
	}
	if t.tolDB == 0 {
		t.tolDB = DefaultToleranceDB
	}
	if t.maxPasses == 0 {
		t.maxPasses = DefaultMaxPasses
	}
	return t
}

func (t *psnrTarget) MaxPasses() int   { return t.maxPasses }
func (t *psnrTarget) ReadsBytes() bool { return false }

// Measure returns the field MSE of an assembled stream. The steering
// loops never call it: a target that reads no bytes is measured off the
// chunk table through MeasureGroup.
func (t *psnrTarget) Measure(st *codec.Stats) float64 { return st.MSE }

// MeasureGroup returns the point-weighted MSE of one chunk subset.
func (t *psnrTarget) MeasureGroup(h *codec.Header, subset []int) float64 {
	return h.GroupAggregateMSE(subset)
}

// Solve re-derives the quantization bin width by a log–log secant step
// through the last two measured (δ, MSE) points (single-point quadratic
// law on the first step — see core.NextDelta). A proposal that repeats
// the bin width just measured would loop without progress, so it is
// reported as an explicit error instead of silently accepting an
// off-target stream; a solver that cannot improve (degenerate inputs)
// accepts the current stream, matching the historical refinement loop.
func (t *psnrTarget) Solve(history []Pass) (float64, bool, error) {
	last := history[len(history)-1]
	mse := last.Measured
	if mse == 0 {
		return 0, true, nil // lossless at this bound; nothing cheaper to try safely
	}
	if core.WithinTolerance(mse, t.targetPSNR, t.vr, t.tolDB) {
		return 0, true, nil
	}
	// The solver steers on bin widths δ = 2·bound; d0/d1 are the last two
	// measured points (d1 zero until a second pass exists).
	d0, mse0 := 2*last.Bound, mse
	var d1, mse1 float64
	if len(history) >= 2 {
		prev := history[len(history)-2]
		d0, mse0 = 2*prev.Bound, prev.Measured
		d1, mse1 = 2*last.Bound, last.Measured
	}
	next, err := core.NextDelta(d0, mse0, d1, mse1, t.targetMSE)
	if err != nil {
		return 0, true, nil // cannot improve from here; accept the stream
	}
	cur := d1
	if cur == 0 {
		cur = d0
	}
	if next == cur {
		// The secant step proposes the bin width it just measured (a
		// distortion curve that does not respond to the bound).
		actual := -10*math.Log10(mse) + 20*math.Log10(t.vr)
		return 0, false, fmt.Errorf(
			"plan: calibrated refinement stalled: secant step repeats δ=%g (measured %.2f dB vs target %.2f dB)",
			next, actual, t.targetPSNR)
	}
	return next / 2, false, nil
}

// ratioTarget is the fixed-ratio goal: steer the bound until
// original/compressed bytes lands within ±tol·target of the target ratio.
type ratioTarget struct {
	target    float64
	bpp       float64
	tol       float64
	maxPasses int
}

// NewRatioTarget builds the fixed-ratio target for values stored at bpp
// bits each (0 selects float64's 64).
func NewRatioTarget(targetRatio, bpp float64, tn Tuning) Target {
	t := &ratioTarget{
		target:    targetRatio,
		bpp:       bpp,
		tol:       tn.RatioTolerance,
		maxPasses: tn.MaxPasses,
	}
	if t.bpp <= 0 {
		t.bpp = 64
	}
	if t.tol == 0 {
		t.tol = DefaultRatioTolerance
	}
	if t.maxPasses == 0 {
		t.maxPasses = DefaultRatioMaxPasses
	}
	return t
}

func (t *ratioTarget) MaxPasses() int   { return t.maxPasses }
func (t *ratioTarget) ReadsBytes() bool { return true }

// Measure returns the achieved compression ratio of the pass. Every
// pipeline measures it — size needs no Theorem 1 — which is why fixed
// ratio works on codecs whose distortion is unmeasurable (otc).
func (t *ratioTarget) Measure(st *codec.Stats) float64 {
	if st.OriginalBytes <= 0 || st.CompressedBytes <= 0 {
		return math.NaN()
	}
	return float64(st.OriginalBytes) / float64(st.CompressedBytes)
}

// MeasureGroup returns the compression ratio of one chunk subset: the
// group's nominal storage footprint (points × bits per value) over its
// summed payload bytes. Header overhead is shared by every group and
// excluded, so per-group ratios are steered and reported on payload
// bytes alone.
func (t *ratioTarget) MeasureGroup(h *codec.Header, subset []int) float64 {
	comp := h.GroupPayloadBytes(subset)
	orig := float64(h.GroupPoints(subset)) * t.bpp / 8
	if comp <= 0 || orig <= 0 {
		return math.NaN()
	}
	return orig / float64(comp)
}

// Solve takes a log–log secant step through the last two measured
// (bound, ratio) points, falling back to the one-bit-per-doubling entropy
// model on the first step or when the rate curve flattens (see
// core.NextBoundFixedRatio). A proposal that repeats the bound it just
// measured means the stream's size no longer responds to the bound, so
// the loop accepts the closest achievable stream rather than spinning —
// the caller sees the achieved ratio in its Result.
func (t *ratioTarget) Solve(history []Pass) (float64, bool, error) {
	last := history[len(history)-1]
	r := last.Measured
	if math.IsNaN(r) {
		return 0, false, fmt.Errorf("plan: fixed-ratio target cannot measure the stream's compression ratio")
	}
	if core.WithinRatioTolerance(r, t.target, t.tol) {
		return 0, true, nil
	}
	b0, r0 := last.Bound, r
	var b1, r1 float64
	if len(history) >= 2 {
		prev := history[len(history)-2]
		b0, r0 = prev.Bound, prev.Measured
		b1, r1 = last.Bound, last.Measured
	}
	next, err := core.NextBoundFixedRatio(t.bpp, b0, r0, b1, r1, t.target)
	if err != nil {
		return 0, false, fmt.Errorf("plan: fixed-ratio solver: %w", err)
	}
	if next == last.Bound {
		return 0, true, nil // size no longer responds; this is the closest stream
	}
	return next, false, nil
}
