package sz

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"fixedpsnr/internal/kernels"
	"fixedpsnr/internal/quantizer"
)

// The scalar reference for sz's 3-D border rows (plane i = 0, then
// column j = 0): the guarded seven-point stencil, borderRow3D on encode
// and the border closure of decompress3DRef on decode, where sz runs the
// row kernels with a zero row for each missing neighbour.
// compress3DRef and decompress3DRef are the 3-D slab loops built on the
// stencil — their wavefront calls pass a no-op border visitor, since
// they run the border rows themselves — and FuzzBorderRows holds
// compress3D and decompress3D to them bit for bit.

// borderRow3D compresses one border row (i == 0 or j == 0) with the
// generic guarded seven-point stencil, appending its literals to arena
// and threading the Σe² accumulator through by value so it stays in a
// register across the row.
func borderRow3D(data, recon []float64, codes []int32, i, j, d2, plane int, q *quantizer.Quantizer, arena []float64, ssum float64) ([]float64, float64) {
	base := i*plane + j*d2
	for k := 0; k < d2; k++ {
		idx := base + k
		var x100, x010, x001, x110, x101, x011, x111 float64
		if i > 0 {
			x100 = recon[idx-plane]
		}
		if j > 0 {
			x010 = recon[idx-d2]
		}
		if k > 0 {
			x001 = recon[idx-1]
		}
		if i > 0 && j > 0 {
			x110 = recon[idx-plane-d2]
		}
		if i > 0 && k > 0 {
			x101 = recon[idx-plane-1]
		}
		if j > 0 && k > 0 {
			x011 = recon[idx-d2-1]
		}
		if i > 0 && j > 0 && k > 0 {
			x111 = recon[idx-plane-d2-1]
		}
		pred := x100 + x010 + x001 - x110 - x101 - x011 + x111
		v := data[idx]
		code, rec, e, ok := q.QuantizeRecon(v - pred)
		if ok {
			codes[idx] = int32(code)
			recon[idx] = pred + rec
			ssum += e * e
		} else {
			arena = append(arena, v)
			codes[idx] = 0
			recon[idx] = v
		}
	}
	return arena, ssum
}

// compress3DRef is compress3D with its border rows through borderRow3D.
func compress3DRef(data []float64, dims []int, codes []int32, recon []float64, st *coreState, q *quantizer.Quantizer) {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		return
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	// Per-row literal segments in the arena: seg[2r] = start,
	// seg[2r+1] = length. Every row is visited exactly once, so no
	// clearing is needed.
	if cap(wf.seg) < 2*nrows {
		wf.seg = make([]int, 2*nrows)
	}
	seg := wf.seg[:2*nrows]
	arena := wf.arena[:0]
	ssum := st.sumSq

	for j := 0; j < d1; j++ {
		start := len(arena)
		arena, ssum = borderRow3D(data, recon, codes, 0, j, d2, plane, q, arena, ssum)
		seg[2*j], seg[2*j+1] = start, len(arena)-start
	}
	for i := 1; i < d0; i++ {
		start := len(arena)
		arena, ssum = borderRow3D(data, recon, codes, i, 0, d2, plane, q, arena, ssum)
		r := i * d1
		seg[2*r], seg[2*r+1] = start, len(arena)-start
	}

	qk := kernelQuant(q)
	for l := range wf.lit {
		if cap(wf.lit[l]) < d2 {
			wf.lit[l] = make([]float64, d2)
		}
	}
	var rows [4]kernels.PQRow
	setRow := func(row *kernels.PQRow, i, j int, lit []float64) {
		base := i*plane + j*d2
		row.Data = data[base : base+d2 : base+d2]
		row.Recon = recon[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up = recon[base-d2 : base : base]                   // (i, j-1, ·)
		row.Pl = recon[base-plane : base-plane+d2]              // (i-1, j, ·)
		row.Pu = recon[base-plane-d2 : base-plane : base-plane] // (i-1, j-1, ·)
		row.Lits = lit[:0]
		row.SumSq = 0
	}
	flush := func(row *kernels.PQRow, i, j int) {
		r := i*d1 + j
		start := len(arena)
		arena = append(arena, row.Lits...)
		seg[2*r], seg[2*r+1] = start, len(row.Lits)
		ssum += row.SumSq
	}
	wavefront3D(d0, d1, false, func(int, int) {},
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			setRow(&rows[2], i3, j3, wf.lit[2])
			setRow(&rows[3], i4, j4, wf.lit[3])
			kernels.PredictQuantizeRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
			flush(&rows[2], i3, j3)
			flush(&rows[3], i4, j4)
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1, wf.lit[0])
			setRow(&rows[1], i2, j2, wf.lit[1])
			kernels.PredictQuantizeRows2(&qk, &rows[0], &rows[1])
			flush(&rows[0], i1, j1)
			flush(&rows[1], i2, j2)
		},
		func(i, j int) {
			setRow(&rows[0], i, j, wf.lit[0])
			kernels.PredictQuantizeRow(&qk, &rows[0])
			flush(&rows[0], i, j)
		})

	if len(arena) > 0 {
		lits := st.literals
		for r := 0; r < nrows; r++ {
			s, l := seg[2*r], seg[2*r+1]
			lits = append(lits, arena[s:s+l]...)
		}
		st.literals = lits
	}
	wf.arena = arena
	wfPool.Put(wf)
	st.sumSq = ssum
}

// decompress3DRef is decompress3D with its border rows through the
// scalar border closure.
func decompress3DRef(out []float64, codes []int32, literals []float64, dims []int, q *quantizer.Quantizer) error {
	d0, d1, d2 := dims[0], dims[1], dims[2]
	if d0 == 0 || d1 == 0 || d2 == 0 {
		if len(literals) != 0 {
			return fmt.Errorf("sz: %d literals left over", len(literals))
		}
		return nil
	}
	plane := d1 * d2
	nrows := d0 * d1
	wf := wfPool.Get().(*wfScratch)
	if cap(wf.offs) < nrows+1 {
		wf.offs = make([]int, nrows+1)
	}
	offs := wf.offs[:nrows+1]
	total := 0
	for r := 0; r < nrows; r++ {
		offs[r] = total
		base := r * d2
		z := 0
		for _, c := range codes[base : base+d2] {
			if c == 0 {
				z++
			}
		}
		total += z
	}
	offs[nrows] = total
	if total > len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: literal stream exhausted")
	}
	if total < len(literals) {
		wfPool.Put(wf)
		return fmt.Errorf("sz: %d literals left over", len(literals)-total)
	}
	rowLits := func(i, j int) []float64 {
		r := i*d1 + j
		return literals[offs[r]:offs[r+1]:offs[r+1]]
	}

	border := func(i, j int) {
		lits := rowLits(i, j)
		li := 0
		base := i*plane + j*d2
		for k := 0; k < d2; k++ {
			idx := base + k
			c := codes[idx]
			if c == 0 {
				out[idx] = lits[li]
				li++
				continue
			}
			var x100, x010, x001, x110, x101, x011, x111 float64
			if i > 0 {
				x100 = out[idx-plane]
			}
			if j > 0 {
				x010 = out[idx-d2]
			}
			if k > 0 {
				x001 = out[idx-1]
			}
			if i > 0 && j > 0 {
				x110 = out[idx-plane-d2]
			}
			if i > 0 && k > 0 {
				x101 = out[idx-plane-1]
			}
			if j > 0 && k > 0 {
				x011 = out[idx-d2-1]
			}
			if i > 0 && j > 0 && k > 0 {
				x111 = out[idx-plane-d2-1]
			}
			pred := x100 + x010 + x001 - x110 - x101 - x011 + x111
			out[idx] = pred + q.Reconstruct(int(c))
		}
	}
	for j := 0; j < d1; j++ {
		border(0, j)
	}
	for i := 1; i < d0; i++ {
		border(i, 0)
	}

	qk := kernelQuant(q)
	var rows [4]kernels.RRRow
	setRow := func(row *kernels.RRRow, i, j int) {
		base := i*plane + j*d2
		row.Out = out[base : base+d2 : base+d2]
		row.Codes = codes[base : base+d2 : base+d2]
		row.Up = out[base-d2 : base : base]                   // (i, j-1, ·)
		row.Pl = out[base-plane : base-plane+d2]              // (i-1, j, ·)
		row.Pu = out[base-plane-d2 : base-plane : base-plane] // (i-1, j-1, ·)
		row.Lits = rowLits(i, j)
	}
	wavefront3D(d0, d1, false, func(int, int) {},
		func(i1, j1, i2, j2, i3, j3, i4, j4 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			setRow(&rows[2], i3, j3)
			setRow(&rows[3], i4, j4)
			kernels.ReconstructRows4(&qk, &rows[0], &rows[1], &rows[2], &rows[3])
		},
		func(i1, j1, i2, j2 int) {
			setRow(&rows[0], i1, j1)
			setRow(&rows[1], i2, j2)
			kernels.ReconstructRows2(&qk, &rows[0], &rows[1])
		},
		func(i, j int) {
			setRow(&rows[0], i, j)
			kernels.ReconstructRow(&qk, &rows[0])
		})
	wfPool.Put(wf)
	return nil
}

// borderSlab turns fuzzer bytes into a d0×d1×d2 slab: values are the
// raw bytes read as little-endian float64s, repeated to fill the slab,
// and d2 takes whatever row length the values allow (at least 1).
func borderSlab(raw []byte, a, b uint8) (data []float64, dims []int) {
	vals := make([]float64, min(len(raw)/8, 512))
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	if len(vals) == 0 {
		vals = []float64{0}
	}
	d0, d1 := 1+int(a%6), 1+int(b%6)
	d2 := max(1, len(vals)/(d0*d1))
	data = make([]float64, d0*d1*d2)
	for p := range data {
		data[p] = vals[p%len(vals)]
	}
	return data, []int{d0, d1, d2}
}

// borderSeed packs values into fuzzer bytes.
func borderSeed(vals ...float64) []byte {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return raw
}

// FuzzBorderRows runs compress3D and decompress3D against the scalar
// reference on fuzzer-chosen slabs, under the dispatched and the
// generic kernels: codes, reconstructions, literals, Σe² and the decoded
// slab must match bit for bit.
func FuzzBorderRows(f *testing.F) {
	negZero := math.Copysign(0, -1)
	ramp := make([]float64, 60)
	for i := range ramp {
		ramp[i] = math.Sin(float64(i)/5) * 3
	}
	f.Add(borderSeed(ramp...), uint8(2), uint8(3), 1e-2, uint8(6))
	f.Add(borderSeed(negZero, 0, negZero, negZero, 0, 0, negZero, 0, 0, negZero, 0, negZero), uint8(1), uint8(1), 1e-3, uint8(4))
	f.Add(borderSeed(math.NaN(), 1, math.Inf(1), 2, math.Inf(-1), 3, negZero, math.NaN(), 4, 5, 6, 7), uint8(1), uint8(2), 0.5, uint8(2))
	f.Add(borderSeed(1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 1e-300, 5e-324, 1e308, -1e308), uint8(1), uint8(1), 1e290, uint8(13))
	f.Add(borderSeed(ramp[:30]...), uint8(4), uint8(5), 1e-1, uint8(3)) // d2 = 1 rows
	f.Add(borderSeed(ramp...), uint8(0), uint8(4), 1e-2, uint8(6))      // d0 = 1 slab
	f.Add(borderSeed(ramp...), uint8(5), uint8(0), 1e-2, uint8(6))      // d1 = 1 slab
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint8, eb float64, capExp uint8) {
		data, dims := borderSlab(raw, a, b)
		eb = math.Abs(eb)
		if !(eb > 1e-300) || !(eb < 1e300) {
			eb = 1e-3
		}
		q, err := quantizer.New(eb, 1<<(2+capExp%15))
		if err != nil {
			t.Fatal(err)
		}
		check := func(generic bool) {
			if generic {
				defer kernels.ForceGeneric()()
			}
			n := len(data)
			codes, recon := make([]int32, n), make([]float64, n)
			wantCodes, wantRecon := make([]int32, n), make([]float64, n)
			var got, want coreState
			compress3D(data, dims, codes, recon, &got, q)
			compress3DRef(data, dims, wantCodes, wantRecon, &want, q)
			if !slices.Equal(codes, wantCodes) {
				t.Fatalf("generic=%v dims %v: codes differ from the reference", generic, dims)
			}
			if !sameBits(recon, wantRecon) {
				t.Fatalf("generic=%v dims %v: reconstructions differ from the reference", generic, dims)
			}
			if !sameBits(got.literals, want.literals) {
				t.Fatalf("generic=%v dims %v: literals differ from the reference", generic, dims)
			}
			if math.Float64bits(got.sumSq) != math.Float64bits(want.sumSq) {
				t.Fatalf("generic=%v dims %v: Σe² %v, reference %v", generic, dims, got.sumSq, want.sumSq)
			}
			out, wantOut := make([]float64, n), make([]float64, n)
			if err := decompress3D(out, codes, got.literals, dims, q); err != nil {
				t.Fatal(err)
			}
			if err := decompress3DRef(wantOut, wantCodes, want.literals, dims, q); err != nil {
				t.Fatal(err)
			}
			if !sameBits(out, wantOut) {
				t.Fatalf("generic=%v dims %v: decoded slab differs from the reference", generic, dims)
			}
		}
		check(false)
		check(true)
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
