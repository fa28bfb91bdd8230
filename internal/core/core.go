// Package core implements the paper's contribution: closed-form prediction
// of the l2-norm distortion (MSE / NRMSE / PSNR) introduced by the
// quantization stage of prediction-based and orthogonal-transform-based
// lossy compressors, and the fixed-PSNR error-control mode built on it.
//
// The key identities (numbered as in the paper):
//
//	Eq. 3   MSE  ≈ (1/6) Σ δi³ · P(mi)          (general quantization)
//	Eq. 4   NRMSE = sqrt(MSE) / vr
//	Eq. 5   PSNR  = −10·log10(Σ δi³·P(mi)) + 10·log10 6 + 20·log10 vr
//	Eq. 6   PSNR  = 20·log10(vr/δ) + 10·log10 12     (uniform bins)
//	Eq. 7   PSNR  = 20·log10(vr/ebabs) + 10·log10 3  (SZ: δ = 2·ebabs)
//	Eq. 8   ebrel = √3 · 10^(−PSNR/20)
//
// (The printed form of Eq. 5 in the paper has its signs garbled; the
// version here is the one consistent with Eqs. 4 and 6, as the uniform-bin
// specialization confirms.)
//
// Fixed-PSNR compression is then a three-step procedure: take the user's
// target PSNR, derive the value-range-based relative error bound from
// Eq. 8 (ebabs = ebrel·vr), and run the ordinary error-bounded compressor
// once. Only the bound derivation — a handful of floating-point
// operations — is added to the compression pipeline.
package core

import (
	"fmt"
	"math"
)

// PSNR is the peak signal-to-noise ratio, in dB, of a reconstruction
// with mean squared error mse over data of value range vr:
// −10·log10(mse) + 20·log10(vr). A lossless reconstruction (mse 0) is
// +Inf; an mse or vr that is not positive, NaN included, gives NaN.
func PSNR(mse, vr float64) float64 {
	switch {
	case mse == 0:
		return math.Inf(1)
	case !(mse > 0 && vr > 0):
		return math.NaN()
	}
	return -10*math.Log10(mse) + 20*math.Log10(vr)
}

// EstimatePSNRUniform predicts the PSNR of midpoint uniform quantization
// with bin width delta over data of value range vr (Eq. 6). The estimate
// assumes the quantized quantity is approximately uniform within each bin.
func EstimatePSNRUniform(vr, delta float64) float64 {
	if vr <= 0 {
		return math.Inf(1)
	}
	if delta <= 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(vr/delta) + 10*math.Log10(12)
}

// EstimatePSNRFromAbsBound predicts the PSNR of SZ-style compression with
// absolute error bound ebAbs over data of value range vr (Eq. 7, using
// SZ's δ = 2·ebabs).
func EstimatePSNRFromAbsBound(vr, ebAbs float64) float64 {
	if vr <= 0 || ebAbs <= 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(vr/ebAbs) + 10*math.Log10(3)
}

// EstimatePSNRFromRelBound predicts the PSNR from a value-range-based
// relative error bound ebrel = ebabs/vr (value-range form of Eq. 7).
func EstimatePSNRFromRelBound(ebRel float64) float64 {
	if ebRel <= 0 {
		return math.Inf(1)
	}
	return -20*math.Log10(ebRel) + 10*math.Log10(3)
}

// RelBoundForPSNR derives the value-range-based relative error bound that
// achieves the target PSNR (Eq. 8): ebrel = √3·10^(−PSNR/20).
func RelBoundForPSNR(targetPSNR float64) float64 {
	return math.Sqrt(3) * math.Pow(10, -targetPSNR/20)
}

// AbsBoundForPSNR derives the absolute error bound for the target PSNR
// given the data's value range: ebabs = ebrel·vr.
func AbsBoundForPSNR(targetPSNR, vr float64) float64 {
	return RelBoundForPSNR(targetPSNR) * vr
}

// DeltaForPSNR derives the uniform quantization bin width achieving the
// target PSNR for data of value range vr (inverse of Eq. 6). Useful for
// transform-domain quantizers that control δ directly rather than ebabs.
func DeltaForPSNR(targetPSNR, vr float64) float64 {
	return vr * math.Sqrt(12) * math.Pow(10, -targetPSNR/20)
}

// EstimateMSEFromLayout evaluates Eq. 3 for an arbitrary symmetric bin
// layout: widths[i] is the width δi of the i-th one-sided bin and
// density[i] the probability density P(mi) at its midpoint. The returned
// value already includes the ×2 symmetry factor.
func EstimateMSEFromLayout(widths, density []float64) (float64, error) {
	if len(widths) != len(density) {
		return 0, fmt.Errorf("core: %d widths but %d densities", len(widths), len(density))
	}
	var sum float64
	for i, w := range widths {
		if w < 0 || density[i] < 0 {
			return 0, fmt.Errorf("core: negative width or density at bin %d", i)
		}
		sum += w * w * w * density[i]
	}
	return sum / 6, nil
}

// EstimatePSNRFromLayout evaluates Eq. 5 for an arbitrary symmetric bin
// layout over data of value range vr.
func EstimatePSNRFromLayout(widths, density []float64, vr float64) (float64, error) {
	mse, err := EstimateMSEFromLayout(widths, density)
	if err != nil {
		return 0, err
	}
	if vr <= 0 {
		return math.Inf(1), nil
	}
	return PSNR(mse, vr), nil
}

// UniformAssumptionMSE returns δ²/12, the per-point MSE of midpoint
// uniform quantization under the uniform-within-bin assumption that
// underlies Eqs. 6–8.
func UniformAssumptionMSE(delta float64) float64 { return delta * delta / 12 }

// QuantizationMSE computes the *exact* expected distortion the SZ
// quantizer introduces for a given set of prediction errors: the mean of
// (e − round(e/δ)·δ)² over errors within the interval range. Errors
// outside the range become lossless literals and contribute zero. The
// second return value is the fraction of errors inside the range.
//
// The ablation experiment compares this against UniformAssumptionMSE to
// explain why low PSNR targets overshoot (Table II's 20 dB rows).
func QuantizationMSE(predErrors []float64, delta float64, radius int) (mse, inRange float64) {
	if len(predErrors) == 0 || delta <= 0 {
		return 0, 0
	}
	var sum float64
	hits := 0
	r := float64(radius)
	for _, e := range predErrors {
		q := math.Round(e / delta)
		if q >= r || q <= -r || math.IsNaN(q) {
			continue // literal: exact
		}
		res := e - q*delta
		sum += res * res
		hits++
	}
	return sum / float64(len(predErrors)), float64(hits) / float64(len(predErrors))
}

// Plan is the outcome of fixed-PSNR planning for one field: the derived
// bounds that the compressor should be run with.
type Plan struct {
	TargetPSNR float64
	ValueRange float64
	EbRel      float64 // value-range-based relative bound (Eq. 8)
	EbAbs      float64 // absolute bound handed to the compressor
	// Constant is true when the field has zero value range; compression
	// is then lossless by construction and any PSNR target is met.
	Constant bool
}

// PlanFixedPSNR derives the error bounds for a target PSNR given the
// field's value range. This is the entire runtime overhead of the
// fixed-PSNR mode. It returns an error for non-positive or non-finite
// targets.
func PlanFixedPSNR(targetPSNR, vr float64) (Plan, error) {
	if math.IsNaN(targetPSNR) || math.IsInf(targetPSNR, 0) || targetPSNR <= 0 {
		return Plan{}, fmt.Errorf("core: target PSNR must be positive and finite, got %g", targetPSNR)
	}
	if vr < 0 || math.IsNaN(vr) || math.IsInf(vr, 0) {
		return Plan{}, fmt.Errorf("core: invalid value range %g", vr)
	}
	p := Plan{
		TargetPSNR: targetPSNR,
		ValueRange: vr,
		EbRel:      RelBoundForPSNR(targetPSNR),
	}
	if vr == 0 {
		p.Constant = true
		return p, nil
	}
	p.EbAbs = p.EbRel * vr
	return p, nil
}
