package otc

import "fixedpsnr/internal/transform"

// refApplyBlock is the line-gather block transform the axis kernels
// replaced, kept as their bit-exact reference: it copies every line of
// every axis into a buffer, transforms it with the one-vector DCT or
// Haar, and scatters it back, axis 0 first, in place in buf.
func refApplyBlock(buf []float64, sizes []int, tr Transform, inverse bool) error {
	rank := len(sizes)
	// Strides for row-major layout of the block.
	strides := make([]int, rank)
	s := 1
	for a := rank - 1; a >= 0; a-- {
		strides[a] = s
		s *= sizes[a]
	}
	total := s
	for a := 0; a < rank; a++ {
		L := sizes[a]
		if L == 1 {
			continue
		}
		// Haar requires power-of-two lengths; other lengths keep the
		// exact-size DCT so the block transform remains orthonormal.
		useHaar := tr == TransformHaar && isPow2(L)
		var d *transform.DCT
		if !useHaar {
			var err error
			d, err = dctFor(L)
			if err != nil {
				return err
			}
		}
		line := make([]float64, L)
		out := make([]float64, L)
		stride := strides[a]
		nlines := total / L
		for ln := 0; ln < nlines; ln++ {
			// Decompose the line index into coordinates of the other
			// axes to find the base offset.
			base := 0
			rem := ln
			for x := rank - 1; x >= 0; x-- {
				if x == a {
					continue
				}
				c := rem % sizes[x]
				rem /= sizes[x]
				base += c * strides[x]
			}
			idx := base
			for k := range line {
				line[k] = buf[idx]
				idx += stride
			}
			if useHaar {
				levels := log2int(L)
				var err error
				if inverse {
					err = transform.HaarInverse(line, levels)
				} else {
					err = transform.HaarForward(line, levels)
				}
				if err != nil {
					return err
				}
				copy(out, line)
			} else if inverse {
				d.Inverse(out, line)
			} else {
				d.Forward(out, line)
			}
			idx = base
			for k := range out {
				buf[idx] = out[k]
				idx += stride
			}
		}
	}
	return nil
}

func log2int(n int) int {
	l := 0
	for m := n; m > 1; m >>= 1 {
		l++
	}
	return l
}
