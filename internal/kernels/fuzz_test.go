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

func FuzzKernelReconstructRow(f *testing.F) {
	f.Add(make([]byte, 32*3), 1e-3, uint8(6))
	f.Add([]byte{0xff, 0x00, 0x7f}, 2.0, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, eb float64, capExp uint8) {
		q := fuzzQuant(eb, capExp)
		data, up, pl, pu := carve4(raw)
		// Encode with the generic reference to get a (codes, lits) pair
		// that satisfies the kernel contract (lits length == zero-code
		// count, in row order) while still carrying special values.
		enc := newPQRow(data, up, pl, pu)
		pqRowGeneric(q, enc)
		encB := newPQRow(up, pl, pu, data)
		pqRowGeneric(q, encB)

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
		compare := func(label string, want, got *RRRow) {
			t.Helper()
			for k := range want.Out {
				if math.Float64bits(want.Out[k]) != math.Float64bits(got.Out[k]) {
					t.Fatalf("%s: out[%d] = %x, want %x", label, k,
						math.Float64bits(got.Out[k]), math.Float64bits(want.Out[k]))
				}
			}
		}

		ref, got := mk(enc), mk(enc)
		reconRowGeneric(q, ref)
		ReconstructRow(q, got)
		compare("row", ref, got)

		refB, gotA, gotB := mk(encB), mk(enc), mk(encB)
		reconRowGeneric(q, refB)
		ReconstructRows2(q, gotA, gotB)
		compare("pairA", ref, gotA)
		compare("pairB", refB, gotB)

		qa, qb, qc, qd := mk(enc), mk(encB), mk(enc), mk(encB)
		ReconstructRows4(q, qa, qb, qc, qd)
		compare("quadA", ref, qa)
		compare("quadB", refB, qb)
		compare("quadC", ref, qc)
		compare("quadD", refB, qd)
	})
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
// CountLanes4 and CodeWindow, against their generic twins on the same
// inputs. CodeWindow also sees the raw int32s, so negative values and
// the top int32 reach its unsigned-minimum and signed-maximum folds.
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
