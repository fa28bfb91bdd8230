//go:build amd64 && !noasm

#include "textflag.h"

// func countLanes4Asm(l0, l1, l2, l3 []int64, syms []int32)
//
// The four-lane frequency count with the per-symbol bounds checks kept:
// an out-of-range symbol routes to countLanes4OOB (which panics)
// instead of writing outside the lane slices, matching the generic
// implementation's contract. Four lanes put the increments to any one
// counter at least four iterations apart, which is what beats the
// store-to-load forwarding latency on runs of one dominant symbol —
// the common shape for quantization codes. Counter increments are
// commutative, so the order of checks and increments within an
// iteration does not change the lane contents. Not NOSPLIT: the panic
// path CALLs into Go.
TEXT ·countLanes4Asm(SB), $0-120
	MOVQ l0_base+0(FP), R8
	MOVQ l0_len+8(FP), DI
	MOVQ l1_base+24(FP), R9
	MOVQ l1_len+32(FP), R12
	MOVQ l2_base+48(FP), R10
	MOVQ l2_len+56(FP), R13
	MOVQ l3_base+72(FP), R11
	MOVQ l3_len+80(FP), R15
	MOVQ syms_base+96(FP), SI
	MOVQ syms_len+104(FP), DX

	MOVQ DX, CX
	SHRQ $2, CX
	JZ   tail

loop:
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	CMPQ    AX, DI
	JAE     oob
	CMPQ    BX, R12
	JAE     oob
	INCQ    (R8)(AX*8)
	INCQ    (R9)(BX*8)
	MOVLQSX 8(SI), AX
	MOVLQSX 12(SI), BX
	CMPQ    AX, R13
	JAE     oob
	CMPQ    BX, R15
	JAE     oob
	INCQ    (R10)(AX*8)
	INCQ    (R11)(BX*8)
	ADDQ    $16, SI
	DECQ    CX
	JNZ     loop

tail:
	// The final n mod 4 symbols go to lanes 0.. in order.
	ANDQ    $3, DX
	JZ      done
	MOVLQSX (SI), AX
	CMPQ    AX, DI
	JAE     oob
	INCQ    (R8)(AX*8)
	DECQ    DX
	JZ      done
	MOVLQSX 4(SI), AX
	CMPQ    AX, R12
	JAE     oob
	INCQ    (R9)(AX*8)
	DECQ    DX
	JZ      done
	MOVLQSX 8(SI), AX
	CMPQ    AX, R13
	JAE     oob
	INCQ    (R10)(AX*8)

done:
	RET

oob:
	CALL ·countLanes4OOB(SB)
	RET

// func codeWindowAVX2(syms []int32) (lo, hi int32)
//
// Vector form of codeWindowGeneric: sixteen codes per iteration in two
// YMM registers. VPADDD of all-ones forms s−1, so VPMINUD's unsigned
// minimum skips code 0 (it wraps to 0xFFFFFFFF, the seed), and VPMAXSD
// keeps the signed maximum from a zero seed. Minimum and maximum are
// associative and commutative, so the two accumulator pairs, the
// horizontal folds and the scalar tail give codeWindowGeneric's result
// in any order.
TEXT ·codeWindowAVX2(SB), NOSPLIT, $0-32
	MOVQ syms_base+0(FP), SI
	MOVQ syms_len+8(FP), CX

	VPCMPEQD Y15, Y15, Y15 // all ones: the minimum's seed and the −1 addend
	VMOVDQU  Y15, Y0
	VMOVDQU  Y15, Y1
	VPXOR    Y2, Y2, Y2
	VPXOR    Y3, Y3, Y3

	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX

wloop:
	CMPQ    BX, DX
	JGE     wfold
	VMOVDQU (SI)(BX*4), Y4
	VMOVDQU 32(SI)(BX*4), Y5
	VPMAXSD Y4, Y2, Y2
	VPMAXSD Y5, Y3, Y3
	VPADDD  Y15, Y4, Y4
	VPADDD  Y15, Y5, Y5
	VPMINUD Y4, Y0, Y0
	VPMINUD Y5, Y1, Y1
	ADDQ    $16, BX
	JMP     wloop

wfold:
	VPMINUD      Y1, Y0, Y0
	VPMAXSD      Y3, Y2, Y2
	VEXTRACTI128 $1, Y0, X1
	VPMINUD      X1, X0, X0
	VEXTRACTI128 $1, Y2, X3
	VPMAXSD      X3, X2, X2
	VPSHUFD      $0x4E, X0, X1
	VPMINUD      X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPMINUD      X1, X0, X0
	VPSHUFD      $0x4E, X2, X3
	VPMAXSD      X3, X2, X2
	VPSHUFD      $0xB1, X2, X3
	VPMAXSD      X3, X2, X2
	VMOVD        X0, AX // unsigned minimum of s−1
	VMOVD        X2, R8 // signed maximum
	VZEROUPPER

wtail:
	CMPQ    BX, CX
	JGE     wdone
	MOVL    (SI)(BX*4), DX
	CMPL    DX, R8
	CMOVLGT DX, R8
	DECL    DX
	CMPL    DX, AX
	CMOVLCS DX, AX
	INCQ    BX
	JMP     wtail

wdone:
	INCL AX
	MOVL AX, lo+24(FP)
	MOVL R8, hi+28(FP)
	RET

// func countZerosAVX2(codes []int32) int
//
// Vector form of countZerosGeneric: VPCMPEQD against zero gives −1 in
// each lane holding a 0 code, and VPSUBD adds it to one of two int32
// lane accumulators, 32 codes per iteration, then 8 at a time. The
// accumulators fold into the 64-bit total every 2^26 codes at most, so
// no lane can overflow; the last 0–7 codes count in scalar.
TEXT ·countZerosAVX2(SB), NOSPLIT, $0-32
	MOVQ  codes_base+0(FP), SI
	MOVQ  codes_len+8(FP), CX
	XORQ  AX, AX
	VPXOR Y7, Y7, Y7

zseg:
	CMPQ CX, $8
	JLT  ztail
	MOVQ CX, DX
	CMPQ DX, $(1<<26)
	JLE  zsized
	MOVQ $(1<<26), DX

zsized:
	ANDQ  $-8, DX
	SUBQ  DX, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1

z32:
	CMPQ     DX, $32
	JLT      z8
	VPCMPEQD (SI), Y7, Y2
	VPCMPEQD 32(SI), Y7, Y3
	VPCMPEQD 64(SI), Y7, Y4
	VPCMPEQD 96(SI), Y7, Y5
	VPSUBD   Y2, Y0, Y0
	VPSUBD   Y3, Y1, Y1
	VPSUBD   Y4, Y0, Y0
	VPSUBD   Y5, Y1, Y1
	ADDQ     $128, SI
	SUBQ     $32, DX
	JMP      z32

z8:
	TESTQ    DX, DX
	JZ       zfold
	VPCMPEQD (SI), Y7, Y2
	VPSUBD   Y2, Y0, Y0
	ADDQ     $32, SI
	SUBQ     $8, DX
	JMP      z8

zfold:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, DX
	ADDQ         DX, AX
	JMP          zseg

ztail:
	VZEROUPPER

ztloop:
	TESTQ CX, CX
	JZ    zdone
	XORL  DX, DX
	CMPL  (SI), $0
	SETEQ DL
	ADDQ  DX, AX
	ADDQ  $4, SI
	DECQ  CX
	JMP   ztloop

zdone:
	MOVQ AX, ret+24(FP)
	RET
