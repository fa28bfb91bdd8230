package transform

import "fmt"

// HaarForward applies an in-place multi-level orthonormal Haar transform
// to x (length must be a power of two ≥ 1). Each level maps pairs
// (a, b) → ((a+b)/√2, (a−b)/√2); levels counts how many times the
// averaging half is recursed (levels ≤ log2(len)). The transform is
// orthonormal: ‖HaarForward(x)‖₂ = ‖x‖₂.
func HaarForward(x []float64, levels int) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	maxLevels := 0
	for m := n; m > 1; m >>= 1 {
		maxLevels++
	}
	if levels < 0 || levels > maxLevels {
		return fmt.Errorf("transform: %d levels out of range [0, %d]", levels, maxLevels)
	}
	tmp := make([]float64, n)
	m := n
	for l := 0; l < levels; l++ {
		half := m / 2
		for i := 0; i < half; i++ {
			a, b := x[2*i], x[2*i+1]
			tmp[i] = (a + b) * invSqrt2
			tmp[half+i] = (a - b) * invSqrt2
		}
		copy(x[:m], tmp[:m])
		m = half
	}
	return nil
}

// HaarInverse inverts HaarForward with the same level count.
func HaarInverse(x []float64, levels int) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	maxLevels := 0
	for m := n; m > 1; m >>= 1 {
		maxLevels++
	}
	if levels < 0 || levels > maxLevels {
		return fmt.Errorf("transform: %d levels out of range [0, %d]", levels, maxLevels)
	}
	tmp := make([]float64, n)
	// Undo levels from the deepest out.
	sizes := make([]int, 0, levels)
	m := n
	for l := 0; l < levels; l++ {
		sizes = append(sizes, m)
		m /= 2
	}
	for l := levels - 1; l >= 0; l-- {
		m := sizes[l]
		half := m / 2
		for i := 0; i < half; i++ {
			s, d := x[i], x[half+i]
			tmp[2*i] = (s + d) * invSqrt2
			tmp[2*i+1] = (s - d) * invSqrt2
		}
		copy(x[:m], tmp[:m])
	}
	return nil
}

const invSqrt2 = 0.7071067811865476 // 1/√2

// HaarForwardAxis applies the full-depth HaarForward (log2(n) levels) to
// every line along the middle axis of x viewed as a row-major
// [outer][n][stride] array, in place, using tmp (at least as long as the
// view) as scratch. Each line's result is bit-identical to HaarForward on
// the gathered line. n must be a power of two.
func HaarForwardAxis(x, tmp []float64, outer, n, stride int) error {
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	plane := n * stride
	for o := 0; o < outer; o++ {
		xs := x[o*plane : (o+1)*plane]
		ts := tmp[o*plane : (o+1)*plane]
		for m := n; m > 1; m /= 2 {
			haarSplit(ts, xs, m/2*stride, stride)
			copy(xs[:m*stride], ts[:m*stride])
		}
	}
	return nil
}

// HaarInverseAxis inverts HaarForwardAxis, with the same view and scratch
// rules; each line is bit-identical to HaarInverse at log2(n) levels.
func HaarInverseAxis(x, tmp []float64, outer, n, stride int) error {
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("transform: Haar length %d is not a power of two", n)
	}
	plane := n * stride
	for o := 0; o < outer; o++ {
		xs := x[o*plane : (o+1)*plane]
		ts := tmp[o*plane : (o+1)*plane]
		for m := 2; m <= n; m *= 2 {
			haarMerge(ts, xs, m/2*stride, stride)
			copy(xs[:m*stride], ts[:m*stride])
		}
	}
	return nil
}

// haarSplit runs one forward Haar level over the rows (each w values
// wide) of x[:2·half]: row pair (2i, 2i+1) becomes averages in row i of
// t[:half] and differences in row i of t[half:2·half].
func haarSplit(t, x []float64, half, w int) {
	lo, hi := t[:half], t[half:2*half]
	if w == 1 {
		x = x[:2*len(lo)]
		for i := range lo {
			a, b := x[2*i], x[2*i+1]
			lo[i] = (a + b) * invSqrt2
			hi[i] = (a - b) * invSqrt2
		}
		return
	}
	for r := 0; r < half; r += w {
		a := x[2*r : 2*r+w]
		b := x[2*r+w : 2*r+2*w]
		l, h := lo[r:r+w], hi[r:r+w]
		b, l, h = b[:len(a)], l[:len(a)], h[:len(a)]
		for s, u := range a {
			l[s] = (u + b[s]) * invSqrt2
			h[s] = (u - b[s]) * invSqrt2
		}
	}
}

// haarMerge inverts haarSplit: averages in the rows of x[:half] and
// differences in the rows of x[half:2·half] become row pairs of t.
func haarMerge(t, x []float64, half, w int) {
	sum, dif := x[:half], x[half:2*half]
	if w == 1 {
		t = t[:2*len(sum)]
		for i, u := range sum {
			v := dif[i]
			t[2*i] = (u + v) * invSqrt2
			t[2*i+1] = (u - v) * invSqrt2
		}
		return
	}
	for r := 0; r < half; r += w {
		ev := t[2*r : 2*r+w]
		od := t[2*r+w : 2*r+2*w]
		u, v := sum[r:r+w], dif[r:r+w]
		od, u, v = od[:len(ev)], u[:len(ev)], v[:len(ev)]
		for s := range ev {
			ev[s] = (u[s] + v[s]) * invSqrt2
			od[s] = (u[s] - v[s]) * invSqrt2
		}
	}
}
