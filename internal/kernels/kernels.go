// Package kernels collects the hot-loop kernels shared by the
// compression pipelines — the fused Lorenzo-3D predict+quantize row
// loop and its reconstruction inverse (internal/sz), the min/max value
// scan (field.ValueRange, codec.ValueBounds), and the Huffman table
// build's code-window scan and four-lane frequency count
// (internal/huffman) — each with a portable generic
// implementation and, on amd64, an AVX2+FMA assembly implementation
// selected once at init via CPUID feature detection.
//
// The contract that makes runtime dispatch safe is bit-identity: every
// implementation of a kernel produces exactly the same outputs for the
// same inputs, floating point included, so the compressed streams are
// byte-identical whichever implementation ran. The arithmetic is
// specified operation-by-operation (evaluation order, math.FMA use,
// NaN/±0 comparison semantics) by the generic implementations in this
// package; the assembly reproduces it instruction-for-instruction, and
// differential fuzzers (FuzzKernel* in this package) gate the pairing.
//
// Build with `-tags noasm` (or on non-amd64 targets) to compile the
// generic implementations only; kernels.Active() reports which set is
// live.
//
// The predict+quantize and reconstruct kernels come in grouped forms
// (pairs and quads): rows from the same Lorenzo anti-diagonal are
// independent, so a grouped kernel can run their serial floating-point
// dependency chains side by side, multiplying the throughput of a
// latency-bound loop without changing any per-point operation (see
// internal/sz for the wavefront schedules that feed them). A group's
// rows share one length. Because the rows are independent, a grouped
// call's outputs are — by construction — bit-identical to N single-row
// calls, which is why the generic grouped forms are plain serial loops
// (the Go compiler spills an interleaved form's ~20 live floats and loses
// the benefit). The assembly pair forms and the predict+quantize quad
// interleave scalar chains; the reconstruction quad holds its four rows
// in the four float64 lanes of one YMM register and runs one vector
// chain, four points per step.
package kernels

// Quant mirrors the quantizer constants the fused kernels need, laid
// out for direct assembly access. RadiusF must equal float64(Radius).
type Quant struct {
	InvDelta float64 // 1/δ, reciprocal bin width
	Delta    float64 // bin width δ = 2·eb
	EB       float64 // absolute error bound
	RadiusF  float64 // float64(Radius)
	Radius   int64   // interval radius R = capacity/2
}

// PQRow is one row's worth of inputs, outputs, and accumulators for the
// fused Lorenzo predict + quantize kernel. A neighbour row outside the
// slab arrives as a row of zeros, so its stencil terms drop out. All
// row slices must have the same length (the row extent); Lits must
// have length 0 and capacity at least that extent, so the kernel's
// appends never grow it. SumSq is a read-modify-write accumulator:
// callers seed it (0 for a fresh row) and read the updated value back
// after the call. Value bounds are not tracked here — a separate
// MinMax pass over the slab is vector-wide and cheaper than carrying
// two more serial accumulators per row through this loop.
type PQRow struct {
	Data  []float64 // row values (input)
	Recon []float64 // reconstructed values (output)
	Codes []int32   // quantization codes (output; 0 = literal)
	Up    []float64 // recon row (i, j−1, ·)
	Pl    []float64 // recon row (i−1, j, ·)
	Pu    []float64 // recon row (i−1, j−1, ·)
	Lits  []float64 // literal values in row order (appended)

	SumSq float64 // Σ e² over quantized points
}

// RRRow is one row's worth of inputs and outputs for the reconstruction
// (decode) kernel; as in PQRow, a neighbour row outside the slab arrives
// as a row of zeros. Out/Codes/Up/Pl/Pu must share one length; Lits
// must hold exactly the row's literal values (one per zero code,
// pre-counted by the caller), in row order.
type RRRow struct {
	Out   []float64 // reconstructed values (output)
	Codes []int32   // quantization codes (input; 0 = literal)
	Up    []float64 // out row (i, j−1, ·)
	Pl    []float64 // out row (i−1, j, ·)
	Pu    []float64 // out row (i−1, j−1, ·)
	Lits  []float64 // this row's literals (consumed in order)
}

// Dispatched implementations, chosen once at init (see dispatch_*.go).
var (
	minMaxFn      func(data []float64) (min, max float64)    = minMaxGeneric
	countLanes4Fn func(l0, l1, l2, l3 []int64, syms []int32) = countLanes4Generic
	codeWindowFn  func(syms []int32) (lo, hi int32)          = codeWindowGeneric
	countZerosFn  func(codes []int32) int                    = countZerosGeneric
	pqRows4Fn     func(q *Quant, a, b, c, d *PQRow)          = pqRows4Generic
	pqRows2Fn     func(q *Quant, a, b *PQRow)                = pqRows2Generic
	pqRowFn       func(q *Quant, a *PQRow)                   = pqRowGeneric
	reconRows4Fn  func(q *Quant, a, b, c, d *RRRow)          = reconRows4Generic
	reconRows2Fn  func(q *Quant, a, b *RRRow)                = reconRows2Generic
	reconRowFn    func(q *Quant, a *RRRow)                   = reconRowGeneric
	implName                                                 = "generic"
)

// Active reports which kernel implementation set is live: "avx2" when
// the assembly kernels were selected at init, "generic" otherwise
// (non-amd64, `-tags noasm` builds, missing CPU features, or a
// ForceGeneric override).
func Active() string { return implName }

// ForceGeneric switches every dispatched kernel to the portable
// implementation and returns a func restoring the previous selection.
// It exists for tests (the stream-fixture guard encodes under both
// implementations in one process) and must not race concurrent kernel
// callers: flip it only around single-threaded sections.
func ForceGeneric() (restore func()) {
	prevMinMax, prevCount, prevWindow, prevZeros := minMaxFn, countLanes4Fn, codeWindowFn, countZerosFn
	prevPQ4, prevPQ2, prevPQ1 := pqRows4Fn, pqRows2Fn, pqRowFn
	prevRR4, prevRR2, prevRR1 := reconRows4Fn, reconRows2Fn, reconRowFn
	prevName := implName
	minMaxFn, countLanes4Fn, codeWindowFn, countZerosFn = minMaxGeneric, countLanes4Generic, codeWindowGeneric, countZerosGeneric
	pqRows4Fn, pqRows2Fn, pqRowFn = pqRows4Generic, pqRows2Generic, pqRowGeneric
	reconRows4Fn, reconRows2Fn, reconRowFn = reconRows4Generic, reconRows2Generic, reconRowGeneric
	implName = "generic"
	return func() {
		minMaxFn, countLanes4Fn, codeWindowFn, countZerosFn = prevMinMax, prevCount, prevWindow, prevZeros
		pqRows4Fn, pqRows2Fn, pqRowFn = prevPQ4, prevPQ2, prevPQ1
		reconRows4Fn, reconRows2Fn, reconRowFn = prevRR4, prevRR2, prevRR1
		implName = prevName
	}
}

// MinMax scans data's minimum and maximum, skipping NaNs (comparisons
// against NaN are false). It returns (+Inf, −Inf) — min > max — for
// empty or all-NaN input; callers map that sentinel to their own
// convention. The scan runs sixteen accumulator lanes (lane = i mod
// 16, four YMM accumulator pairs in the AVX2 form) with the scalar
// tail folded into lane 0 before lanes 1–15 merge in ascending order,
// so every implementation agrees on which of several equal extrema
// (±0) wins.
func MinMax(data []float64) (min, max float64) { return minMaxFn(data) }

// CountLanes4 accumulates symbol frequencies into four interleaved
// lanes — position i into lane i mod 4, the final 1–3 symbols into
// lanes 0.. in order — so runs of one dominant symbol (the common case
// for quantization codes) do not serialize on a single counter's
// store-to-load forwarding; four counters per symbol keep the forwarded
// increments at least four loop iterations apart. Every symbol must lie
// in [0, len(laneN)) for the lane it lands in; one outside panics, as
// slice indexing would. Callers sum the lanes — only the totals are
// meaningful, so widening the lane count never changes a stream.
func CountLanes4(l0, l1, l2, l3 []int64, syms []int32) {
	countLanes4Fn(l0, l1, l2, l3, syms)
}

// CodeWindow returns the window a Huffman table build has to count: lo
// is the smallest nonzero code in syms and hi the largest code. Code 0
// is the literal marker, which every chunk with a literal carries, so it
// stays outside the window — counted on its own, one literal would
// otherwise stretch the window from 0 to the chunk's codes, the full
// capacity. lo is 0 when no code is nonzero, and hi is 0 for empty
// input. For any int32 values the result is specified as lo = 1 + the
// unsigned minimum of uint32(s)−1 (wrapping) and hi = the signed maximum
// of 0 and every s, so every implementation agrees on every input.
func CodeWindow(syms []int32) (lo, hi int32) { return codeWindowFn(syms) }

// CountZeros returns how many of codes are 0: the literal count of a
// row of quantization codes, which fixes where the row's literals start
// in a decoded chunk's scan-order literal stream.
func CountZeros(codes []int32) int { return countZerosFn(codes) }

// PredictQuantizeRows4 runs the fused Lorenzo-3D predict + quantize
// loop over four independent rows (same anti-diagonal). The
// rows do not interact, so the outputs equal four PredictQuantizeRow
// calls bit-for-bit; the assembly form interleaves the four serial
// recon dependency chains in one loop so they hide each other's
// latency.
func PredictQuantizeRows4(q *Quant, a, b, c, d *PQRow) { pqRows4Fn(q, a, b, c, d) }

// PredictQuantizeRows2 is the two-row grouped form of
// PredictQuantizeRow, for anti-diagonals with fewer than four rows
// left.
func PredictQuantizeRows2(q *Quant, a, b *PQRow) { pqRows2Fn(q, a, b) }

// PredictQuantizeRow runs the fused Lorenzo-3D predict + quantize loop
// over one row: the seven-point stencil prediction from the
// already-reconstructed Up/Pl/Pu rows and the in-row left neighbor,
// reciprocal-multiply binning (math.FMA with the round-to-nearest
// magic constant), reconstruction-verified bound check, and fused
// Σe² accumulation. This single-row form is the reference semantics
// every other implementation must match bit-for-bit.
func PredictQuantizeRow(q *Quant, a *PQRow) { pqRowFn(q, a) }

// ReconstructRows4 is the decode-side inverse of PredictQuantizeRows4:
// four independent rows of one length reconstructed in one call, as
// four lanes of one vector chain in the AVX2 form.
func ReconstructRows4(q *Quant, a, b, c, d *RRRow) { reconRows4Fn(q, a, b, c, d) }

// ReconstructRows2 is the decode-side inverse of PredictQuantizeRows2:
// two independent rows reconstructed in one interleaved loop.
func ReconstructRows2(q *Quant, a, b *RRRow) { reconRows2Fn(q, a, b) }

// ReconstructRow reconstructs one row from its codes and literals; the
// reference semantics for the pair form.
func ReconstructRow(q *Quant, a *RRRow) { reconRowFn(q, a) }
