// Package plan is the error-control layer of the compression stack: it
// converts every user-facing mode (absolute bound, value-range relative
// bound, fixed PSNR, fixed compression ratio, pointwise relative bound)
// into the absolute bound a registered codec runs with, and steers
// multi-pass quality targets through one Measure/Solve loop.
//
// The layer is organized around the Target interface: a target measures
// one quality statistic of a compression pass (exact MSE for fixed PSNR,
// achieved ratio for fixed ratio), over the whole field or over one
// chunk subset, and solves for the next bound from the pass history.
// Codecs never see the target — they are handed an absolute bound and
// report statistics — so new targets (fixed-SSIM, new group statistics)
// are plan-layer additions, not codec changes. Drive steers a whole
// field. DriveGroups maps the chunked container onto named region groups
// (a Partition) and steers each group over only its own chunks, so one
// stream can hold a region of interest at high PSNR over a fixed-ratio
// background. Both run the same loop, solve.
//
// The math (Eqs. 6–8 of the paper, the log–log secant steps) lives in
// internal/core; this package owns the mode dispatch, target
// construction, and the control loop, so the public API and the
// experiment harness share one bound derivation.
package plan

import (
	"fmt"
	"math"

	"fixedpsnr/internal/codec"
	"fixedpsnr/internal/core"
)

// Mode selects the error-control strategy. It is the mode byte stream
// headers record, so a request's mode annotates its stream as is.
type Mode = codec.Mode

// Modes.
const (
	// ModeAbs bounds the absolute pointwise error.
	ModeAbs = codec.ModeAbs
	// ModeRel bounds the pointwise error relative to the value range.
	ModeRel = codec.ModeRel
	// ModePSNR fixes the overall PSNR of the reconstruction (the
	// paper's fixed-PSNR mode).
	ModePSNR = codec.ModePSNR
	// ModePWRel bounds the pointwise error relative to each value.
	ModePWRel = codec.ModePWRel
	// ModeRatio fixes the overall compression ratio (FRaZ-style): the
	// bound is steered until original/compressed bytes lands within the
	// acceptance band of the target.
	ModeRatio = codec.ModeRatio
)

// Request is one error-control demand: a mode plus its bound parameter
// and the steering knobs the multi-pass targets read.
type Request struct {
	Mode Mode
	// ErrorBound is the absolute bound for ModeAbs.
	ErrorBound float64
	// RelBound is the value-range-based relative bound for ModeRel.
	RelBound float64
	// TargetPSNR is the target PSNR in dB for ModePSNR.
	TargetPSNR float64
	// PWRelBound is the pointwise relative bound for ModePWRel.
	PWRelBound float64
	// TargetRatio is the target compression ratio for ModeRatio.
	TargetRatio float64
	// BitsPerValue is the uncompressed storage width of one value (32 or
	// 64); ModeRatio's first-pass guess and entropy-model step need it.
	BitsPerValue float64
	// Calibrated enables the measured-MSE refinement loop for ModePSNR
	// (ModeRatio always steers; there is no single-pass ratio formula).
	Calibrated bool
	// Tuning carries the acceptance bands and pass limit the targets
	// share (zero fields select the documented defaults).
	Tuning Tuning
}

// Resolution is the outcome of planning: the bounds a codec should run
// with, plus the header annotations.
type Resolution struct {
	// EbAbs is the absolute bound handed to the codec (0 for constant
	// fields in ModeAbs and for ModePWRel, which carries its bound in
	// PWRelBound).
	EbAbs float64
	// EbRel is EbAbs expressed against the value range (0 when the
	// range is zero).
	EbRel float64
	// TargetPSNR echoes the requested PSNR (NaN for other modes).
	TargetPSNR float64
	// EstimatedPSNR is the closed-form Eq. 7 prediction of the actual
	// PSNR at EbAbs (+Inf for constant fields).
	EstimatedPSNR float64
}

// Resolve derives the codec-facing bounds for a field of value range vr.
// This is the entire planning overhead of every mode — a handful of
// floating-point operations (Eq. 8 for ModePSNR).
func (r Request) Resolve(vr float64) (Resolution, error) {
	res := Resolution{TargetPSNR: math.NaN()}
	switch r.Mode {
	case ModeAbs:
		if !(r.ErrorBound > 0) {
			if vr == 0 { // constant fields need no bound
				break
			}
			return Resolution{}, fmt.Errorf("plan: ModeAbs requires a positive ErrorBound")
		}
		res.EbAbs = r.ErrorBound
	case ModeRel:
		if !(r.RelBound > 0) {
			return Resolution{}, fmt.Errorf("plan: ModeRel requires a positive RelBound")
		}
		res.EbAbs = r.RelBound * vr
	case ModePSNR:
		p, err := core.PlanFixedPSNR(r.TargetPSNR, vr)
		if err != nil {
			return Resolution{}, err
		}
		res.EbAbs = p.EbAbs
		res.TargetPSNR = r.TargetPSNR
	case ModePWRel:
		res.EstimatedPSNR = math.Inf(1)
		return res, nil
	case ModeRatio:
		if !(r.TargetRatio > 1) || math.IsInf(r.TargetRatio, 0) {
			return Resolution{}, fmt.Errorf("plan: ModeRatio requires a finite TargetRatio > 1")
		}
		if vr == 0 { // constant fields compress to a header; no steering
			break
		}
		bpp := r.BitsPerValue
		if bpp <= 0 {
			bpp = 64
		}
		res.EbAbs = core.InitialBoundForRatio(r.TargetRatio, vr, bpp)
	default:
		return Resolution{}, fmt.Errorf("plan: unknown mode %v", r.Mode)
	}
	if vr > 0 {
		res.EbRel = res.EbAbs / vr
	}
	res.EstimatedPSNR = core.EstimatePSNRFromAbsBound(vr, res.EbAbs)
	return res, nil
}
