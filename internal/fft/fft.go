// Package fft implements an iterative radix-2 complex FFT plus the
// separable N-dimensional transforms built on it. The synthetic data set
// generator uses it for spectral synthesis of Gaussian random fields;
// nothing here depends on the rest of the module.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"fixedpsnr/internal/parallel"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// transform computes the in-place DFT of x (length must be a power of
// two), X[k] = Σ x[j]·exp(∓2πi·jk/N), with the + sign when inverse is
// set and no 1/N normalization.
func transform(x []complex128, inverse bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		for lo := 0; lo < n; lo += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[lo+k]
				b := x[lo+k+half] * w
				x[lo+k] = a + b
				x[lo+k+half] = a - b
				w *= step
			}
		}
	}
	return nil
}

// InverseND computes the in-place inverse DFT of an N-dimensional array
// stored row-major in x with the given power-of-two dims, parallelizing
// the line transforms across `workers` goroutines. The full 1/N
// normalization is applied.
func InverseND(x []complex128, dims []int, workers int) error {
	total := 1
	for _, d := range dims {
		if !IsPow2(d) {
			return fmt.Errorf("fft: dimension %d is not a power of two", d)
		}
		total *= d
	}
	if total != len(x) {
		return fmt.Errorf("fft: dims %v imply %d values, have %d", dims, total, len(x))
	}
	// Transform along each axis in turn. For axis a with length L, the
	// array decomposes into total/L independent lines with stride equal
	// to the product of the dimensions after axis a.
	for a := len(dims) - 1; a >= 0; a-- {
		L := dims[a]
		stride := 1
		for j := a + 1; j < len(dims); j++ {
			stride *= dims[j]
		}
		nlines := total / L
		err := parallel.ForEach(nlines, workers, func(line int) error {
			// Decompose the line index into (outer, inner) where
			// inner < stride indexes within the fastest block and
			// outer indexes the blocks before axis a.
			outer := line / stride
			inner := line % stride
			base := outer*L*stride + inner
			buf := make([]complex128, L)
			for k := 0; k < L; k++ {
				buf[k] = x[base+k*stride]
			}
			if err := transform(buf, true); err != nil {
				return err
			}
			inv := 1 / float64(L)
			for k := 0; k < L; k++ {
				x[base+k*stride] = buf[k] * complex(inv, 0)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
