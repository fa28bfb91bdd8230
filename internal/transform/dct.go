// Package transform provides the orthonormal linear transforms used by the
// transform-based compressor (internal/otc): the orthonormal DCT-II/III
// pair and a multi-level orthonormal Haar wavelet transform.
//
// Every transform here is orthonormal — it preserves the l2 norm exactly
// (Parseval). That property is the hypothesis of the paper's Theorem 2:
// distortion introduced by quantizing the transformed coefficients equals
// the distortion of the reconstructed data, which is what lets the
// fixed-PSNR mode drive a transform-based compressor with the same Eq. 6.
//
// Forward, Inverse, HaarForward and HaarInverse transform one vector;
// they are the definitions. The axis kernels (DCT.ForwardAxis,
// DCT.InverseAxis, HaarForwardAxis, HaarInverseAxis) apply them to every
// line of a row-major block along one axis without gathering the lines,
// and are bit-identical to gathering each line and calling the
// one-vector form.
package transform

import (
	"fmt"
	"math"
)

// DCT holds the precomputed basis of the orthonormal DCT-II of a fixed
// size, flat and row-major, with its transpose for the inverse.
type DCT struct {
	n     int
	basis []float64 // basis[k*n+j] = c(k)·cos(π(2j+1)k/2n)
	inv   []float64 // inv[j*n+k] = basis[k*n+j]: the DCT-III
}

// NewDCT precomputes an orthonormal DCT for vectors of length n ≥ 1.
func NewDCT(n int) (*DCT, error) {
	if n < 1 {
		return nil, fmt.Errorf("transform: DCT size must be ≥ 1, got %d", n)
	}
	d := &DCT{n: n, basis: make([]float64, n*n), inv: make([]float64, n*n)}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for j := 0; j < n; j++ {
			v := c * math.Cos(math.Pi*float64(2*j+1)*float64(k)/(2*float64(n)))
			d.basis[k*n+j] = v
			d.inv[j*n+k] = v
		}
	}
	return d, nil
}

// Size returns the transform length.
func (d *DCT) Size() int { return d.n }

// Forward applies the orthonormal DCT-II: dst[k] = Σ_j basis[k][j]·src[j],
// summed over j upward from zero. dst and src must both have length Size
// and must not overlap.
func (d *DCT) Forward(dst, src []float64) {
	for k := 0; k < d.n; k++ {
		row := d.basis[k*d.n : (k+1)*d.n]
		var s float64
		for j := 0; j < d.n; j++ {
			s += row[j] * src[j]
		}
		dst[k] = s
	}
}

// Inverse applies the orthonormal DCT-III (the transpose, which is the
// inverse of an orthonormal matrix): dst[j] = Σ_k basis[k][j]·src[k],
// summed over k upward from zero.
func (d *DCT) Inverse(dst, src []float64) {
	for j := 0; j < d.n; j++ {
		var s float64
		for k := 0; k < d.n; k++ {
			s += d.basis[k*d.n+j] * src[k]
		}
		dst[j] = s
	}
}

// ForwardAxis applies Forward to every line along the middle axis of src
// viewed as a row-major [outer][Size][stride] array, writing dst in the
// same layout: dst[o][k][s] = Σ_j basis[k][j]·src[o][j][s]. Each output is
// bit-identical to Forward on the gathered line. dst and src must hold at
// least outer·Size·stride values and must not overlap.
func (d *DCT) ForwardAxis(dst, src []float64, outer, stride int) {
	mulAxis(d.basis, d.n, dst, src, outer, stride)
}

// InverseAxis is ForwardAxis for Inverse.
func (d *DCT) InverseAxis(dst, src []float64, outer, stride int) {
	mulAxis(d.inv, d.n, dst, src, outer, stride)
}

// Forward3D applies the DCT separably to an n×n×n block stored row-major,
// fastest axis first. dst and src must not overlap.
func (d *DCT) Forward3D(dst, src []float64) {
	d.apply3D(dst, src, d.basis)
}

// Inverse3D inverts Forward3D.
func (d *DCT) Inverse3D(dst, src []float64) {
	d.apply3D(dst, src, d.inv)
}

func (d *DCT) apply3D(dst, src, m []float64) {
	n := d.n
	tmp := make([]float64, n*n*n)
	mulAxis(m, n, dst, src, n*n, 1) // axis 2: contiguous lines
	mulAxis(m, n, tmp, dst, n, n)   // axis 1
	mulAxis(m, n, dst, tmp, 1, n*n) // axis 0
}

// mulAxis computes dst[o][k][s] = Σ_j m[k][j]·src[o][j][s] over the
// row-major [outer][n][stride] views of dst and src, for an n×n row-major
// matrix m. Every sum starts from zero and adds the terms in increasing
// j, written as acc += m·x like Forward, so targets that fuse
// multiply-adds fuse both the same way and the outputs stay bit-identical
// to the one-vector loops. Each tile keeps eight independent
// accumulators in registers so the adds pipeline.
func mulAxis(m []float64, n int, dst, src []float64, outer, stride int) {
	if stride == 1 {
		mulLines(m, n, dst[:outer*n], src[:outer*n])
		return
	}
	plane := n * stride
	for o := 0; o < outer; o++ {
		mulPlane(m, n, dst[o*plane:(o+1)*plane], src[o*plane:(o+1)*plane], stride)
	}
}

// mulLines is mulAxis at stride 1: src and dst are consecutive length-n
// lines. Two lines by four rows of m share each load of the other.
func mulLines(m []float64, n int, dst, src []float64) {
	lines := len(src) / n
	l := 0
	for ; l+2 <= lines; l += 2 {
		x0 := src[l*n : (l+1)*n]
		x1 := src[(l+1)*n : (l+2)*n]
		y0 := dst[l*n : (l+1)*n]
		y1 := dst[(l+1)*n : (l+2)*n]
		k := 0
		for ; k+4 <= n; k += 4 {
			r0 := m[k*n : (k+1)*n]
			r1 := m[(k+1)*n : (k+2)*n]
			r2 := m[(k+2)*n : (k+3)*n]
			r3 := m[(k+3)*n : (k+4)*n]
			x1 := x1[:len(x0)]
			r0, r1, r2, r3 = r0[:len(x0)], r1[:len(x0)], r2[:len(x0)], r3[:len(x0)]
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			for j, u := range x0 {
				v := x1[j]
				a0 += r0[j] * u
				a1 += r1[j] * u
				a2 += r2[j] * u
				a3 += r3[j] * u
				b0 += r0[j] * v
				b1 += r1[j] * v
				b2 += r2[j] * v
				b3 += r3[j] * v
			}
			y0[k], y0[k+1], y0[k+2], y0[k+3] = a0, a1, a2, a3
			y1[k], y1[k+1], y1[k+2], y1[k+3] = b0, b1, b2, b3
		}
		for ; k < n; k++ {
			r := m[k*n : (k+1)*n]
			r = r[:len(x0)]
			x1 := x1[:len(x0)]
			var a, b float64
			for j, u := range x0 {
				a += r[j] * u
				b += r[j] * x1[j]
			}
			y0[k], y1[k] = a, b
		}
	}
	if l < lines {
		x := src[l*n : (l+1)*n]
		y := dst[l*n : (l+1)*n]
		for k := range y {
			r := m[k*n : (k+1)*n]
			r = r[:len(x)]
			var a float64
			for j, u := range x {
				a += r[j] * u
			}
			y[k] = a
		}
	}
}

// mulPlane is mulAxis for one outer index at stride > 1: src and dst are
// [n][stride] planes, and each output row k is a combination of the rows
// of src. Two rows of m by four columns share each load of the other.
func mulPlane(m []float64, n int, dst, src []float64, stride int) {
	k := 0
	for ; k+2 <= n; k += 2 {
		r0 := m[k*n : (k+1)*n]
		r1 := m[(k+1)*n : (k+2)*n]
		r1 = r1[:len(r0)]
		y0 := dst[k*stride : (k+1)*stride]
		y1 := dst[(k+1)*stride : (k+2)*stride]
		s := 0
		for ; s+4 <= stride; s += 4 {
			var a0, a1, a2, a3, b0, b1, b2, b3 float64
			p := s
			for j, u := range r0 {
				v := r1[j]
				x := src[p : p+4 : p+4]
				a0 += u * x[0]
				a1 += u * x[1]
				a2 += u * x[2]
				a3 += u * x[3]
				b0 += v * x[0]
				b1 += v * x[1]
				b2 += v * x[2]
				b3 += v * x[3]
				p += stride
			}
			y0[s], y0[s+1], y0[s+2], y0[s+3] = a0, a1, a2, a3
			y1[s], y1[s+1], y1[s+2], y1[s+3] = b0, b1, b2, b3
		}
		for ; s < stride; s++ {
			var a, b float64
			p := s
			for j, u := range r0 {
				x := src[p]
				a += u * x
				b += r1[j] * x
				p += stride
			}
			y0[s], y1[s] = a, b
		}
	}
	if k < n {
		r := m[k*n : (k+1)*n]
		y := dst[k*stride : (k+1)*stride]
		for s := range y {
			var a float64
			p := s
			for _, u := range r {
				a += u * src[p]
				p += stride
			}
			y[s] = a
		}
	}
}
