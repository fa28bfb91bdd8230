package core

import (
	"fmt"
	"math"
)

// The paper's conclusion names its future work: "explore more techniques
// to further improve the fixed-PSNR lossy compression, especially for the
// low compression-quality demands". This file implements such a
// technique, built on the paper's own Theorem 1: because the
// quantization-stage distortion equals the end-to-end distortion, the
// compressor can measure its exact MSE *during* compression — no
// decompression, no extra pass. The calibrated mode compresses once with
// the Eq. 8 bound, reads the exact MSE, and if the achieved PSNR
// overshoots the target beyond a tolerance, re-derives the bin width by a
// log–log secant step and recompresses. At high targets the first pass
// already lands within tolerance, so the refinement costs nothing; at
// 20–40 dB targets it converges in one or two extra passes and removes
// the Table II overshoot.

// MSEForPSNR converts a target PSNR into the target MSE for data of value
// range vr (inverting Eq. 4/5).
func MSEForPSNR(targetPSNR, vr float64) float64 {
	return vr * vr * math.Pow(10, -targetPSNR/10)
}

// NextDelta proposes the next quantization bin width for the
// self-correcting fixed-PSNR loop.
//
// With one measured point (d0, mse0) it scales by the ideal-quantizer law
// MSE ∝ δ²; with two points it takes a secant step in log–log space,
// which adapts to the data's actual MSE(δ) curve (flatter than quadratic
// once errors concentrate in the center bin). The result is clamped to
// [d·1/16, d·16] of the most recent point to keep the loop stable; pass
// d1 ≤ 0 to use the single-point form.
func NextDelta(d0, mse0, d1, mse1, targetMSE float64) (float64, error) {
	if !(d0 > 0) || !(mse0 > 0) || !(targetMSE > 0) {
		return 0, fmt.Errorf("core: NextDelta needs positive d0, mse0, targetMSE")
	}
	latest := d0
	var next float64
	if d1 > 0 && mse1 > 0 && d1 != d0 && mse1 != mse0 {
		latest = d1
		// log(mse) ≈ a·log(δ) + b through the two points.
		a := (math.Log(mse1) - math.Log(mse0)) / (math.Log(d1) - math.Log(d0))
		if a < 0.1 {
			// The curve has flattened (distortion saturating);
			// fall back to the quadratic law from the newest point.
			next = d1 * math.Sqrt(targetMSE/mse1)
		} else {
			next = math.Exp(math.Log(d1) + (math.Log(targetMSE)-math.Log(mse1))/a)
		}
	} else {
		next = d0 * math.Sqrt(targetMSE/mse0)
	}
	lo, hi := latest/16, latest*16
	if next < lo {
		next = lo
	}
	if next > hi {
		next = hi
	}
	return next, nil
}

// WithinTolerance reports whether a measured MSE achieves the target PSNR
// within tolDB (one-sided: overshoot beyond tolDB triggers refinement;
// undershoot beyond tolDB also does).
func WithinTolerance(mse, targetPSNR, vr, tolDB float64) bool {
	if mse <= 0 {
		return false // lossless: infinitely above target — refine
	}
	return math.Abs(PSNR(mse, vr)-targetPSNR) <= tolDB
}
