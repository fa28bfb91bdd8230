package kernels

import (
	"encoding/binary"
	"math"
	"testing"
)

// The differential fuzzers gate dispatch: every kernel's dispatched
// implementation (assembly on amd64 builds) is driven against the
// generic reference on fuzzer-chosen inputs and must match bit for bit.
// Rows are decoded straight from the raw corpus bytes, so NaN payloads,
// ±Inf, denormals, and every other awkward bit pattern show up without
// any generator cooperation, and row lengths sweep the non-lane-multiple
// tails. On `-tags noasm` builds the comparison is generic-vs-generic —
// trivially green, but the harness still exercises the panic contracts.

// fuzzRow reinterprets raw bytes as a float64 row (little endian).
func fuzzRow(b []byte) []float64 {
	row := make([]float64, len(b)/8)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return row
}

// fuzzQuant sanitizes fuzzer-picked quantizer parameters into a valid
// Quant: error bound positive and finite, capacity a power of two in
// the quantizer's accepted range.
func fuzzQuant(eb float64, capExp uint8) *Quant {
	eb = math.Abs(eb)
	if !(eb > 1e-300) || !(eb < 1e300) {
		eb = 1e-3
	}
	capacity := 1 << (4 + capExp%14) // 16 .. 2^17
	return testQuant(eb, capacity)
}

// carve splits a byte string into four equal-length float64 rows.
func carve4(raw []byte) (a, b, c, d []float64) {
	n := len(raw) / 32 * 8
	return fuzzRow(raw[:n]), fuzzRow(raw[n : 2*n]), fuzzRow(raw[2*n : 3*n]), fuzzRow(raw[3*n : 4*n])
}

func FuzzKernelPredictQuantize(f *testing.F) {
	f.Add(make([]byte, 32*7), 1e-3, uint8(6))
	f.Add([]byte{0x01, 0x02}, 0.5, uint8(0))
	seed := make([]byte, 32*5)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	binary.LittleEndian.PutUint64(seed, math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(seed[40:], math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(seed[80:], 1) // smallest denormal
	f.Add(seed, 1e-9, uint8(10))
	f.Fuzz(func(t *testing.T, raw []byte, eb float64, capExp uint8) {
		q := fuzzQuant(eb, capExp)
		data, up, pl, pu := carve4(raw)

		ref := newPQRow(data, up, pl, pu)
		pqRowGeneric(q, ref)
		got := newPQRow(data, up, pl, pu)
		PredictQuantizeRow(q, got)
		comparePQRows(t, "row", ref, got)

		// Pair and quad forms against generic single-row calls, with the
		// rows permuted so each lane sees different data.
		refB := newPQRow(up, pl, pu, data)
		pqRowGeneric(q, refB)
		gotA := newPQRow(data, up, pl, pu)
		gotB := newPQRow(up, pl, pu, data)
		PredictQuantizeRows2(q, gotA, gotB)
		comparePQRows(t, "pairA", ref, gotA)
		comparePQRows(t, "pairB", refB, gotB)

		refC := newPQRow(pl, pu, data, up)
		refD := newPQRow(pu, data, up, pl)
		pqRowGeneric(q, refC)
		pqRowGeneric(q, refD)
		quad := [4]*PQRow{
			newPQRow(data, up, pl, pu),
			newPQRow(up, pl, pu, data),
			newPQRow(pl, pu, data, up),
			newPQRow(pu, data, up, pl),
		}
		PredictQuantizeRows4(q, quad[0], quad[1], quad[2], quad[3])
		comparePQRows(t, "quadA", ref, quad[0])
		comparePQRows(t, "quadB", refB, quad[1])
		comparePQRows(t, "quadC", refC, quad[2])
		comparePQRows(t, "quadD", refD, quad[3])
	})
}

// quadSeed lays out FuzzKernelReconstructRow's raw input for rows of n
// points: the four carved arrays (data, up, pl, pu) take value(a, k) at
// column k.
func quadSeed(n int, value func(a, k int) float64) []byte {
	raw := make([]byte, 32*n)
	for a := 0; a < 4; a++ {
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint64(raw[8*(a*n+k):], math.Float64bits(value(a, k)))
		}
	}
	return raw
}

// FuzzKernelReconstructRow drives the reconstruction kernels against
// reconRowGeneric on four distinct rows, each the generic encoder's
// codes and literals for one permutation of the carved arrays, and then
// on the raw bytes read as codes (any int32, negative ones included).
func FuzzKernelReconstructRow(f *testing.F) {
	f.Add(make([]byte, 32*3), 1e-3, uint8(6))
	f.Add([]byte{0xff, 0x00, 0x7f}, 2.0, uint8(3))
	smooth := func(a, k int) float64 { return float64(a+1) * math.Sin(float64(k)/7) }
	for n := 0; n <= 9; n++ {
		f.Add(quadSeed(n, smooth), 1e-3, uint8(8))
	}
	f.Add(quadSeed(128, smooth), 1e-4, uint8(12))
	// Literal codes in every lane of the first column and of the first
	// block, with NaN, ±Inf and −0 literals (a point after an infinite
	// literal predicts from ±Inf or NaN, so −0 there is a literal too),
	// then smooth columns and a tail of 1–3 points.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for tail := 1; tail <= 3; tail++ {
		f.Add(quadSeed(8+tail, func(a, k int) float64 {
			if k < len(specials) {
				return specials[(k+a)%len(specials)]
			}
			return smooth(a, k)
		}), 1e-3, uint8(8))
	}
	// Mostly literals: large values against a tiny bound and capacity 16.
	f.Add(quadSeed(37, func(a, k int) float64 { return 1e10 * math.Sin(float64(3*k+a)) }), 1e-9, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, eb float64, capExp uint8) {
		q := fuzzQuant(eb, capExp)
		data, up, pl, pu := carve4(raw)
		// Encode with the generic reference to get (codes, lits) pairs
		// that satisfy the kernel contract (lits length == zero-code
		// count, in row order) while still carrying special values.
		var enc [4]*PQRow
		for l, in := range [4][4][]float64{
			{data, up, pl, pu}, {up, pl, pu, data}, {pl, pu, data, up}, {pu, data, up, pl},
		} {
			enc[l] = newPQRow(in[0], in[1], in[2], in[3])
			pqRowGeneric(q, enc[l])
		}
		mk := func(e *PQRow) *RRRow {
			return &RRRow{
				Out:   make([]float64, len(e.Data)),
				Codes: e.Codes,
				Up:    e.Up,
				Pl:    e.Pl,
				Pu:    e.Pu,
				Lits:  e.Lits,
			}
		}
		checkReconGroups(t, q, mk(enc[0]), mk(enc[1]), mk(enc[2]), mk(enc[3]))

		// Raw codes: every int32, each row's literals drawn from another
		// array.
		codes := make([][]int32, 4)
		for l, bits := range [4][]float64{data, up, pl, pu} {
			codes[l] = make([]int32, len(bits))
			for k, v := range bits {
				codes[l][k] = int32(math.Float64bits(v) >> (16 * l))
			}
		}
		var rows [4]*RRRow
		for l := range rows {
			lits := make([]float64, 0, len(data))
			for k, c := range codes[l] {
				if c == 0 {
					lits = append(lits, enc[(l+1)%4].Up[k])
				}
			}
			rows[l] = &RRRow{Out: make([]float64, len(data)), Codes: codes[l], Up: enc[l].Up, Pl: enc[l].Pl, Pu: enc[l].Pu, Lits: lits}
		}
		checkReconGroups(t, q, rows[0], rows[1], rows[2], rows[3])
	})
}

// checkReconGroups reconstructs rows a–d with reconRowGeneric and with
// the dispatched single, pair and quad kernels, and fails on any output
// bit that differs.
func checkReconGroups(t *testing.T, q *Quant, a, b, c, d *RRRow) {
	t.Helper()
	in := [4]*RRRow{a, b, c, d}
	clone := func() [4]*RRRow {
		var out [4]*RRRow
		for l, r := range in {
			cp := *r
			cp.Out = make([]float64, len(r.Out))
			out[l] = &cp
		}
		return out
	}
	compare := func(label string, want, got [4]*RRRow) {
		t.Helper()
		for l := range want {
			for k := range want[l].Out {
				if math.Float64bits(want[l].Out[k]) != math.Float64bits(got[l].Out[k]) {
					t.Fatalf("%s lane %d: out[%d] = %x, want %x", label, l, k,
						math.Float64bits(got[l].Out[k]), math.Float64bits(want[l].Out[k]))
				}
			}
		}
	}
	ref := clone()
	for _, r := range ref {
		reconRowGeneric(q, r)
	}
	row := clone()
	for _, r := range row {
		ReconstructRow(q, r)
	}
	compare("row", ref, row)
	pair := clone()
	ReconstructRows2(q, pair[0], pair[1])
	ReconstructRows2(q, pair[2], pair[3])
	compare("pair", ref, pair)
	quad := clone()
	ReconstructRows4(q, quad[0], quad[1], quad[2], quad[3])
	compare("quad", ref, quad)
}

func FuzzKernelValueBounds(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8*16))
	nan := make([]byte, 8*17) // one past a full lane pass, all NaN
	for i := 0; i < len(nan); i += 8 {
		binary.LittleEndian.PutUint64(nan[i:], math.Float64bits(math.NaN()))
	}
	f.Add(nan)
	zeros := make([]byte, 8*33)
	for i := 0; i < len(zeros); i += 16 {
		binary.LittleEndian.PutUint64(zeros[i:], math.Float64bits(math.Copysign(0, -1)))
	}
	f.Add(zeros) // ±0 tie resolution across lanes and tail
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := fuzzRow(raw)
		wantMin, wantMax := minMaxGeneric(data)
		gotMin, gotMax := MinMax(data)
		if math.Float64bits(wantMin) != math.Float64bits(gotMin) ||
			math.Float64bits(wantMax) != math.Float64bits(gotMax) {
			t.Fatalf("MinMax = (%x, %x), want (%x, %x)",
				math.Float64bits(gotMin), math.Float64bits(gotMax),
				math.Float64bits(wantMin), math.Float64bits(wantMax))
		}
	})
}

// codeBytes packs codes as FuzzKernelCount's raw input.
func codeBytes(codes ...int32) []byte {
	raw := make([]byte, 4*len(codes))
	for i, c := range codes {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(c))
	}
	return raw
}

// FuzzKernelCount drives the two kernels of the Huffman table build,
// CountLanes4 and CodeWindow, and the decoder's literal count,
// CountZeros, against their generic twins on the same inputs. CodeWindow
// and CountZeros also see the raw int32s, so negative values and the top
// int32 reach CodeWindow's unsigned-minimum and signed-maximum folds.
func FuzzKernelCount(f *testing.F) {
	f.Add([]byte{}, uint16(100))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint16(7))
	f.Add(make([]byte, 4*1001), uint16(1)) // literal-only: every code 0
	// No literals: a window of nonzero codes around a radius.
	noLits := make([]int32, 67)
	for i := range noLits {
		noLits[i] = int32(1000 + (i*37)%29 - 14)
	}
	f.Add(codeBytes(noLits...), uint16(2047))
	// Tails of 1–15 codes past a whole vector block, the window's ends
	// and a literal in the tail.
	for tail := 1; tail <= 15; tail++ {
		codes := make([]int32, 16+tail)
		for i := range codes {
			codes[i] = 500
		}
		codes[16] = 0
		codes[len(codes)-1] = int32(400 - tail)
		if tail > 1 {
			codes[len(codes)-2] = int32(600 + tail)
		}
		f.Add(codeBytes(codes...), uint16(1023))
	}
	// The top symbol: the lanes' last counter, and the top int32 for the
	// window's raw pass.
	f.Add(codeBytes(2047, 1, 0, 2047, 5, 2047, 0, 3, 2047, 2047, 9, 0, 1, 2047, 4, 2047, 2047), uint16(2047))
	f.Add(codeBytes(1<<31-1, 0, 7, -1, 1<<31-1, -(1<<31), 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), uint16(99))
	f.Fuzz(func(t *testing.T, raw []byte, laneLen uint16) {
		m := int32(laneLen%2048) + 1
		syms := make([]int32, len(raw)/4)
		rawSyms := make([]int32, len(raw)/4)
		for i := range syms {
			v := int32(binary.LittleEndian.Uint32(raw[i*4:]))
			rawSyms[i] = v
			v %= m
			if v < 0 {
				v += m
			}
			syms[i] = v
		}
		for _, in := range [][]int32{syms, rawSyms} {
			wantLo, wantHi := codeWindowGeneric(in)
			if lo, hi := CodeWindow(in); lo != wantLo || hi != wantHi {
				t.Fatalf("CodeWindow = [%d, %d], want [%d, %d]", lo, hi, wantLo, wantHi)
			}
			if got, want := CountZeros(in), countZerosGeneric(in); got != want {
				t.Fatalf("CountZeros = %d, want %d", got, want)
			}
		}
		// On codes (non-negative) the window is the smallest nonzero code
		// and the largest code.
		var lo, hi int32
		for _, s := range syms {
			if s != 0 && (lo == 0 || s < lo) {
				lo = s
			}
			hi = max(hi, s)
		}
		if gotLo, gotHi := codeWindowGeneric(syms); gotLo != lo || gotHi != hi {
			t.Fatalf("codeWindowGeneric = [%d, %d], want [%d, %d]", gotLo, gotHi, lo, hi)
		}
		var want, got [4][]int64
		for l := range want {
			want[l] = make([]int64, m)
			got[l] = make([]int64, m)
		}
		countLanes4Generic(want[0], want[1], want[2], want[3], syms)
		CountLanes4(got[0], got[1], got[2], got[3], syms)
		for l := range want {
			for i := range want[l] {
				if want[l][i] != got[l][i] {
					t.Fatalf("lane%d[%d] = %d, want %d", l, i, got[l][i], want[l][i])
				}
			}
		}
	})
}
