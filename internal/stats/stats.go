// Package stats provides the distortion metrics used throughout the
// module: mean squared error, normalized root mean squared error, peak
// signal-to-noise ratio and maximum pointwise error, plus the histogram
// behind Figure 1.
//
// Definitions follow the paper exactly:
//
//	MSE    = (1/N) Σ (x_i − x̃_i)²
//	NRMSE  = sqrt(MSE) / vr          with vr = max(X) − min(X)
//	PSNR   = −20·log10(NRMSE) = 20·log10(vr / RMSE)
//
// PSNR is reported in decibels. A lossless reconstruction has infinite
// PSNR; a constant original field (vr = 0) makes NRMSE/PSNR undefined and
// the functions return ±Inf accordingly.
package stats

import (
	"fmt"
	"math"
)

// Distortion bundles the reconstruction-quality metrics of a lossy
// compression run.
type Distortion struct {
	MSE      float64 // mean squared error
	RMSE     float64 // sqrt(MSE)
	NRMSE    float64 // RMSE / value range of the original data
	PSNR     float64 // −20 log10(NRMSE), in dB
	MaxErr   float64 // max |x_i − x̃_i|
	ValueRng float64 // vr = max − min of the original data
	N        int     // number of points compared
}

// String renders the metrics in a compact single line.
func (d Distortion) String() string {
	return fmt.Sprintf("psnr=%.4f dB mse=%.6g nrmse=%.6g maxerr=%.6g vr=%.6g n=%d",
		d.PSNR, d.MSE, d.NRMSE, d.MaxErr, d.ValueRng, d.N)
}

// Compare computes the distortion metrics between an original and a
// reconstructed slice. The two slices must have equal length; Compare
// panics otherwise (mismatched shapes are a programming error, not an
// input condition).
func Compare(orig, recon []float64) Distortion {
	if len(orig) != len(recon) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(orig), len(recon)))
	}
	var d Distortion
	d.N = len(orig)
	if d.N == 0 {
		d.PSNR = math.Inf(1)
		return d
	}
	min, max := math.Inf(1), math.Inf(-1)
	var sumSq, maxErr float64
	for i, x := range orig {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		e := x - recon[i]
		if e < 0 {
			e = -e
		}
		if e > maxErr {
			maxErr = e
		}
		sumSq += e * e
	}
	d.MSE = sumSq / float64(d.N)
	d.RMSE = math.Sqrt(d.MSE)
	d.MaxErr = maxErr
	d.ValueRng = max - min
	if d.ValueRng > 0 {
		d.NRMSE = d.RMSE / d.ValueRng
	} else if d.RMSE == 0 {
		d.NRMSE = 0
	} else {
		d.NRMSE = math.Inf(1)
	}
	d.PSNR = PSNRFromNRMSE(d.NRMSE)
	return d
}

// PSNRFromNRMSE converts a normalized RMSE into PSNR (dB). A zero NRMSE
// yields +Inf (lossless); an infinite or NaN NRMSE yields −Inf.
func PSNRFromNRMSE(nrmse float64) float64 {
	switch {
	case nrmse == 0:
		return math.Inf(1)
	case math.IsInf(nrmse, 1) || math.IsNaN(nrmse):
		return math.Inf(-1)
	default:
		return -20 * math.Log10(nrmse)
	}
}
