// Package stats provides the distortion metrics used throughout the
// module: mean squared error, normalized root mean squared error, peak
// signal-to-noise ratio, maximum pointwise error, and supporting moment and
// histogram utilities.
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

// NRMSEFromPSNR inverts PSNRFromNRMSE.
func NRMSEFromPSNR(psnr float64) float64 {
	if math.IsInf(psnr, 1) {
		return 0
	}
	return math.Pow(10, -psnr/20)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Moments holds streaming mean/variance accumulators (Welford's method),
// which stay numerically stable across the value magnitudes seen in HPC
// fields.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// N returns the number of observations.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance (division by n).
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the unbiased sample variance (division by n−1).
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// SampleStdDev returns the sample standard deviation, the STDEV column of
// the paper's Table II.
func (m *Moments) SampleStdDev() float64 { return math.Sqrt(m.SampleVariance()) }

// MeanStd computes mean and sample standard deviation of xs in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m.Mean(), m.SampleStdDev()
}
