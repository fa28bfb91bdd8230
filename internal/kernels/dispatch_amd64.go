//go:build amd64 && !noasm

package kernels

// cpuid and xgetbv are tiny assembly shims (cpuid_amd64.s); the module
// has no dependencies, so feature detection is hand-rolled rather than
// imported from golang.org/x/sys/cpu.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The assembly kernels (…_amd64.s). Each reproduces its generic
// counterpart's arithmetic operation-for-operation; see the package
// comment for the bit-identity contract and the differential fuzzers
// that enforce it.
//
//go:noescape
func minMaxAVX2(data []float64) (min, max float64)

//go:noescape
func countLanes4Asm(l0, l1, l2, l3 []int64, syms []int32)

//go:noescape
func codeWindowAVX2(syms []int32) (lo, hi int32)

//go:noescape
func pqRowAsm(q *Quant, a *PQRow)

//go:noescape
func pqRows2Asm(q *Quant, a, b *PQRow)

//go:noescape
func pqRows4Asm(q *Quant, a, b, c, d *PQRow)

//go:noescape
func reconRowAsm(q *Quant, a *RRRow)

//go:noescape
func reconRows2Asm(q *Quant, a, b *RRRow)

//go:noescape
func reconRows4Asm(q *Quant, a, b, c, d *RRRow)

//go:noescape
func countZerosAVX2(codes []int32) int

// reconRows4AVX2 runs a quad through the vector kernel, which holds the
// four rows in the lanes of one YMM register. Rows shorter than one
// four-column block, and a Radius outside int32 (the vector conversion
// is exact only for int32 radii), take two scalar pair calls. Before the
// vector kernel, a quad was two pair calls because a wider scalar
// interleave gained nothing; that was the legacy CVTSQ2SD conversion
// merging into its destination register, which tied the chains together
// (see recon_amd64.s).
func reconRows4AVX2(q *Quant, a, b, c, d *RRRow) {
	if len(a.Out) < 4 || int64(int32(q.Radius)) != q.Radius {
		reconRows2Asm(q, a, b)
		reconRows2Asm(q, c, d)
		return
	}
	reconRows4Asm(q, a, b, c, d)
}

// countLanes4OOB backs the bounds check in countLanes4Asm: the assembly
// jumps here instead of writing outside the lane slices, matching the
// generic implementation's panic-on-bad-symbol contract.
func countLanes4OOB() {
	panic("kernels: CountLanes4 symbol out of range")
}

func init() {
	if !haveAVX2FMA() {
		return
	}
	minMaxFn = minMaxAVX2
	countLanes4Fn = countLanes4Asm
	codeWindowFn = codeWindowAVX2
	countZerosFn = countZerosAVX2
	pqRows4Fn = pqRows4Asm
	pqRows2Fn = pqRows2Asm
	pqRowFn = pqRowAsm
	reconRows4Fn = reconRows4AVX2
	reconRows2Fn = reconRows2Asm
	reconRowFn = reconRowAsm
	implName = "avx2"
}

// haveAVX2FMA reports whether the CPU and OS support the AVX2+FMA
// kernels: AVX, AVX2, and FMA in CPUID, plus OS-enabled XMM+YMM state
// (OSXSAVE and XCR0 bits 1 and 2), the standard safety checklist for
// dispatching VEX-encoded code.
func haveAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
