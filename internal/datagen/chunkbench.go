package datagen

import "math"

// ChunkBench fills dst with the chunkbench field's values at the
// row-major positions start, start+1, … of the 3-D grid dims: separable
// trigonometric modes plus a deterministic high-frequency perturbation,
// rounded to single precision, with every value inside [-2, 2]. It is the
// one generator behind the chunkbench throughput benchmarks and
// `fpsz-bench mkfield`; a caller streaming the field fills it piecewise.
func ChunkBench(dst []float64, start int, dims []int) {
	plane := dims[1] * dims[2]
	for k := range dst {
		i := start + k
		x := i / plane
		rem := i % plane
		y := rem / dims[2]
		z := rem % dims[2]
		v := math.Sin(float64(x)/17)*math.Cos(float64(y)/23) +
			0.5*math.Sin(float64(z)/11) +
			0.05*math.Sin(float64(i)/3)
		dst[k] = float64(float32(v))
	}
}
