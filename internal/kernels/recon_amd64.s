//go:build amd64 && !noasm

#include "textflag.h"

// Struct offsets (asserted by TestAsmStructOffsets):
//   Quant: Delta+8 Radius+32
//   RRRow: Out+0 Codes+24 Up+48 Pl+72 Pu+96 Lits ptr+120 len+128
//
// Three reconstruction kernels. reconRowAsm and reconRows2Asm are scalar:
// one or two rows' serial prediction chains, interleaved in the pair.
// reconRows4Asm holds a quad's four rows in the four float64 lanes of
// one YMM register and runs the same chain as VADDPD/VSUBPD, so one
// chain's latency covers four points. Every form reproduces
// reconRowGeneric operation for operation: the stencil sums left to
// right with the running value as the first source of each add, and a
// code's term is float64(c-radius)*delta, computed exactly.
//
// The scalar forms convert codes with VCVTSI2SDQ AX, X0, Xn. X0 holds
// delta and never changes, so the upper half the instruction merges in
// is ready at once. The legacy CVTSQ2SD merged into its own
// destination's old value: each conversion waited on the register's
// previous writer, which tied the pair kernel's two chains together and
// was why a wider scalar interleave gained nothing on decode.

// func reconRowAsm(q *Quant, a *RRRow)
//
// Transcription of reconRowGeneric: code 0 consumes the next literal,
// any other code reconstructs pred + float64(c-radius)*delta with the
// prediction chained strictly left to right through the previous output
// (kept in X1 across iterations instead of re-loading out[k-1]).
TEXT ·reconRowAsm(SB), NOSPLIT, $0-16
	MOVQ   q+0(FP), AX
	VMOVSD 8(AX), X0 // delta
	MOVQ   32(AX), DX // radius

	MOVQ a+8(FP), AX
	MOVQ 0(AX), R8    // Out
	MOVQ 8(AX), CX    // n
	MOVQ 24(AX), SI   // Codes
	MOVQ 48(AX), R10  // Up
	MOVQ 72(AX), R11  // Pl
	MOVQ 96(AX), R12  // Pu
	MOVQ 120(AX), R13 // Lits
	XORQ R15, R15     // literal cursor

	TESTQ CX, CX
	JZ    done

	// k = 0: out[0] = pl[0] + up[0] - pu[0] + float64(c-radius)*delta
	MOVLQSX (SI), AX
	TESTQ AX, AX
	JZ    lit0
	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X2
	VMULSD     X0, X2, X2
	VMOVSD     (R11), X1
	VADDSD     (R10), X1, X1
	VSUBSD     (R12), X1, X1
	VADDSD     X2, X1, X1
	JMP        store0

lit0:
	VMOVSD (R13), X1
	INCQ   R15

store0:
	VMOVSD X1, (R8)
	MOVQ   $1, BX

loop:
	CMPQ  BX, CX
	JGE   done
	MOVLQSX (SI)(BX*4), AX
	TESTQ AX, AX
	JZ    lit

	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X2
	VMULSD     X0, X2, X2

	// pred = pl[k]+up[k]+out[k-1]-pu[k]-pl[k-1]-up[k-1]+pu[k-1]
	VMOVSD (R11)(BX*8), X3
	VADDSD (R10)(BX*8), X3, X3
	VADDSD X1, X3, X3
	VSUBSD (R12)(BX*8), X3, X3
	VSUBSD -8(R11)(BX*8), X3, X3
	VSUBSD -8(R10)(BX*8), X3, X3
	VADDSD -8(R12)(BX*8), X3, X3
	VADDSD X2, X3, X1 // out[k] = pred + cf; becomes out[k-1]
	VMOVSD X1, (R8)(BX*8)
	INCQ   BX
	JMP    loop

lit:
	VMOVSD (R13)(R15*8), X1
	INCQ   R15
	VMOVSD X1, (R8)(BX*8)
	INCQ   BX
	JMP    loop

done:
	RET

// func reconRows2Asm(q *Quant, a, b *RRRow)
//
// Lane A then lane B per iteration, each lane reconRowAsm's sequence,
// so the two serial prediction chains overlap in the out-of-order
// window. Cold operands (pu row B, literal bases and cursors) live in
// the frame.
//
// Frame: 0 puB, 8 litsA, 16 litsB, 24 liA, 32 liB.
TEXT ·reconRows2Asm(SB), NOSPLIT, $48-24
	MOVQ   q+0(FP), AX
	VMOVSD 8(AX), X0 // delta
	MOVQ   32(AX), DX // radius

	MOVQ a+8(FP), AX
	MOVQ 0(AX), R8   // outA
	MOVQ 8(AX), CX   // n
	MOVQ 24(AX), SI  // codesA
	MOVQ 48(AX), R10 // upA
	MOVQ 72(AX), R12 // plA
	MOVQ 96(AX), R15 // puA
	MOVQ 120(AX), BX
	MOVQ BX, 8(SP)   // litsA
	MOVQ $0, 24(SP)  // liA

	MOVQ b+16(FP), AX
	MOVQ 0(AX), R9   // outB
	MOVQ 24(AX), DI  // codesB
	MOVQ 48(AX), R11 // upB
	MOVQ 72(AX), R13 // plB
	MOVQ 96(AX), BX
	MOVQ BX, 0(SP)   // puB
	MOVQ 120(AX), BX
	MOVQ BX, 16(SP)  // litsB
	MOVQ $0, 32(SP)  // liB

	TESTQ CX, CX
	JZ    done

	// k = 0, lane A
	MOVLQSX (SI), AX
	TESTQ AX, AX
	JZ    lit0A
	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X3
	VMULSD     X0, X3, X3
	VMOVSD     (R12), X1
	VADDSD     (R10), X1, X1
	VSUBSD     (R15), X1, X1
	VADDSD     X3, X1, X1
	JMP        store0A

lit0A:
	MOVQ   8(SP), AX
	VMOVSD (AX), X1
	INCQ   24(SP)

store0A:
	VMOVSD X1, (R8)

	// k = 0, lane B
	MOVLQSX (DI), AX
	TESTQ AX, AX
	JZ    lit0B
	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X3
	VMULSD     X0, X3, X3
	MOVQ       0(SP), AX
	VMOVSD     (R13), X2
	VADDSD     (R11), X2, X2
	VSUBSD     (AX), X2, X2
	VADDSD     X3, X2, X2
	JMP        store0B

lit0B:
	MOVQ   16(SP), AX
	VMOVSD (AX), X2
	INCQ   32(SP)

store0B:
	VMOVSD X2, (R9)
	MOVQ   $1, BX

loop:
	CMPQ BX, CX
	JGE  done

	// lane A
	MOVLQSX (SI)(BX*4), AX
	TESTQ AX, AX
	JZ    litA

	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X3
	VMULSD     X0, X3, X3
	VMOVSD     (R12)(BX*8), X4
	VADDSD     (R10)(BX*8), X4, X4
	VADDSD     X1, X4, X4
	VSUBSD     (R15)(BX*8), X4, X4
	VSUBSD     -8(R12)(BX*8), X4, X4
	VSUBSD     -8(R10)(BX*8), X4, X4
	VADDSD     -8(R15)(BX*8), X4, X4
	VADDSD     X3, X4, X1
	VMOVSD     X1, (R8)(BX*8)
	JMP        laneB

litA:
	MOVQ   8(SP), AX
	MOVQ   24(SP), DX
	VMOVSD (AX)(DX*8), X1
	INCQ   24(SP)
	MOVQ   q+0(FP), AX
	MOVQ   32(AX), DX // restore radius
	VMOVSD X1, (R8)(BX*8)

laneB:
	MOVLQSX (DI)(BX*4), AX
	TESTQ AX, AX
	JZ    litB

	SUBQ       DX, AX
	VCVTSI2SDQ AX, X0, X3
	VMULSD     X0, X3, X3
	MOVQ       0(SP), AX
	VMOVSD     (R13)(BX*8), X4
	VADDSD     (R11)(BX*8), X4, X4
	VADDSD     X2, X4, X4
	VSUBSD     (AX)(BX*8), X4, X4
	VSUBSD     -8(R13)(BX*8), X4, X4
	VSUBSD     -8(R11)(BX*8), X4, X4
	VADDSD     -8(AX)(BX*8), X4, X4
	VADDSD     X3, X4, X2
	VMOVSD     X2, (R9)(BX*8)
	JMP        next

litB:
	MOVQ   16(SP), AX
	MOVQ   32(SP), DX
	VMOVSD (AX)(DX*8), X2
	INCQ   32(SP)
	MOVQ   q+0(FP), AX
	MOVQ   32(AX), DX // restore radius
	VMOVSD X2, (R9)(BX*8)

next:
	INCQ BX
	JMP  loop

done:
	RET

// reconRows4Asm's frame, addressed from R12, SP rounded up to 32 bytes:
// the current block's four columns of pl, up and pu, one column (four
// rows) per 32 bytes; the block's codes, four int32 per column; the
// literal of each (column, lane) whose code is 0; and per lane the row
// pointers and the literal cursor. The layout takes 800 bytes. SP is
// only 8-byte aligned, so rounding it up moves R12 by up to 24 bytes,
// and the caller's frame pointer is saved just above the frame: the
// frame is 800+24 = 824 bytes, so the layout never reaches that slot.
#define S_PLC   0   // pl columns 0..3
#define S_UPC   128 // up columns 0..3
#define S_PUC   256 // pu columns 0..3
#define S_CODES 384 // codes, 16 bytes per column
#define S_LITV  448 // literal for bit 4j+l of the block's zero mask
#define S_OUT   576 // out base per lane
#define S_CODE  608 // codes base per lane
#define S_UP    640 // up base per lane
#define S_PL    672 // pl base per lane
#define S_PU    704 // pu base per lane
#define S_LIT   736 // lits base per lane
#define S_LI    768 // literal cursor per lane; the layout ends at 800

// STASH copies the RRRow at AX into lane's slots.
#define STASH(lane) \
	MOVQ 0(AX), DX; MOVQ DX, S_OUT+8*lane(R12); \
	MOVQ 24(AX), DX; MOVQ DX, S_CODE+8*lane(R12); \
	MOVQ 48(AX), DX; MOVQ DX, S_UP+8*lane(R12); \
	MOVQ 72(AX), DX; MOVQ DX, S_PL+8*lane(R12); \
	MOVQ 96(AX), DX; MOVQ DX, S_PU+8*lane(R12); \
	MOVQ 120(AX), DX; MOVQ DX, S_LIT+8*lane(R12); \
	MOVQ $0, S_LI+8*lane(R12)

// STAGE transposes columns k..k+3 of the four rows whose bases sit at
// ptrs into four column vectors (lane l = row l) stored at dst.
#define STAGE(ptrs, dst) \
	MOVQ ptrs+0(R12), AX; MOVQ ptrs+8(R12), DX; MOVQ ptrs+16(R12), SI; MOVQ ptrs+24(R12), DI; \
	VMOVUPD     (AX)(BX*8), X4; VINSERTF128 $1, (SI)(BX*8), Y4, Y4; \
	VMOVUPD     (DX)(BX*8), X5; VINSERTF128 $1, (DI)(BX*8), Y5, Y5; \
	VMOVUPD     16(AX)(BX*8), X6; VINSERTF128 $1, 16(SI)(BX*8), Y6, Y6; \
	VMOVUPD     16(DX)(BX*8), X7; VINSERTF128 $1, 16(DI)(BX*8), Y7, Y7; \
	VUNPCKLPD   Y5, Y4, Y8; VUNPCKHPD Y5, Y4, Y4; \
	VUNPCKLPD   Y7, Y6, Y5; VUNPCKHPD Y7, Y6, Y6; \
	VMOVUPD     Y8, dst+0(R12); VMOVUPD Y4, dst+32(R12); \
	VMOVUPD     Y5, dst+64(R12); VMOVUPD Y6, dst+96(R12)

// CHAIN reconstructs column j of the block into od, from the previous
// column's pl, up, pu and output (plp, upp, pup, op):
// od = pl+up+op-pu-plp-upp+pup + (float64(c)-radiusF)*delta. The
// conversion is exact: c and radius are int32, so their difference needs
// at most 33 bits.
#define CHAIN(j, plp, upp, pup, op, od) \
	VMOVUPD   S_PLC+32*j(R12), Y1; \
	VADDPD    S_UPC+32*j(R12), Y1, Y1; \
	VCVTDQ2PD S_CODES+16*j(R12), Y0; \
	VSUBPD    Y3, Y0, Y0; \
	VMULPD    Y2, Y0, Y0; \
	VADDPD    op, Y1, Y1; \
	VSUBPD    S_PUC+32*j(R12), Y1, Y1; \
	VSUBPD    plp, Y1, Y1; \
	VSUBPD    upp, Y1, Y1; \
	VADDPD    pup, Y1, Y1; \
	VADDPD    Y0, Y1, od

// LITS replaces the lanes of od whose column-j code is 0 with their
// gathered literals.
#define LITS(j, od) \
	VPXOR     X0, X0, X0; \
	VPCMPEQD  S_CODES+16*j(R12), X0, X0; \
	VPMOVSXDQ X0, Y0; \
	VBLENDVPD Y0, S_LITV+32*j(R12), od, od

// func reconRows4Asm(q *Quant, a, b, c, d *RRRow)
//
// The four rows share one length n ≥ 4 and Radius fits in an int32 (the
// Go wrapper checks both). Blocks of four columns: the block's codes,
// pl, up and pu are transposed into the frame, one YMM per column with
// row l in lane l. A zero code in the block sends its lane's next
// literal to S_LITV first, lanes in row order within a column and
// columns in order within a lane, so every row consumes its literals in
// row order. Then the four columns run the stencil chain, the previous
// column's output in a register, and a column with a zero code blends
// its literals in before the next column reads it. The four output
// columns are transposed back into the rows.
//
// Column 0 runs the same chain: a row's missing column −1 enters as
// pl = up = +0 and pu = out = −0. Adding −0 and subtracting +0 return
// their other operand bit for bit (−0 and NaN included), so the chain
// reduces exactly to reconRowGeneric's pl+up−pu+cf at k = 0.
//
// The last n mod 4 points of each row run through reconRowAsm's scalar
// chain. Registers: Y2 delta, Y3 float64(radius), Y9–Y11 the previous
// block's last pl, up and pu columns, Y12–Y15 the output columns (Y15
// carries into the next block); R8–R11 the out bases, R12 the frame,
// R13 the block's zero mask, BX the block's first column. Not NOSPLIT:
// the frame is larger than the nosplit limit.
TEXT ·reconRows4Asm(SB), $824-40
	LEAQ 31(SP), R12
	ANDQ $-32, R12

	MOVQ         q+0(FP), AX
	VBROADCASTSD 8(AX), Y2  // delta
	VBROADCASTSD 24(AX), Y3 // RadiusF = float64(radius)

	MOVQ a+8(FP), AX
	MOVQ 8(AX), CX
	STASH(0)
	MOVQ b+16(FP), AX
	STASH(1)
	MOVQ c+24(FP), AX
	STASH(2)
	MOVQ d+32(FP), AX
	STASH(3)
	MOVQ S_OUT+0(R12), R8
	MOVQ S_OUT+8(R12), R9
	MOVQ S_OUT+16(R12), R10
	MOVQ S_OUT+24(R12), R11

	VPXOR    Y9, Y9, Y9     // pl[-1] = +0
	VPXOR    Y10, Y10, Y10  // up[-1] = +0
	VPCMPEQQ Y11, Y11, Y11
	VPSLLQ   $63, Y11, Y11  // pu[-1] = −0
	VMOVDQU  Y11, Y15       // out[-1] = −0

	ANDQ $-4, CX
	XORQ BX, BX

block:
	// Codes: rows A|C and B|D in one register each, interleaved and
	// permuted into columns 0|1 and 2|3.
	MOVQ        S_CODE+0(R12), AX
	MOVQ        S_CODE+8(R12), DX
	MOVQ        S_CODE+16(R12), SI
	MOVQ        S_CODE+24(R12), DI
	VMOVDQU     (AX)(BX*4), X4
	VINSERTI128 $1, (SI)(BX*4), Y4, Y4
	VMOVDQU     (DX)(BX*4), X5
	VINSERTI128 $1, (DI)(BX*4), Y5, Y5
	VPUNPCKLDQ  Y5, Y4, Y6
	VPUNPCKHDQ  Y5, Y4, Y4
	VPERMQ      $0xD8, Y6, Y6
	VPERMQ      $0xD8, Y4, Y4
	VMOVDQU     Y6, S_CODES+0(R12)
	VMOVDQU     Y4, S_CODES+32(R12)
	VPXOR       Y5, Y5, Y5
	VPCMPEQD    Y5, Y6, Y6
	VPCMPEQD    Y5, Y4, Y4
	VMOVMSKPS   Y6, R13
	VMOVMSKPS   Y4, AX
	SHLL        $8, AX
	ORL         AX, R13
	JNZ         gather

staged:
	STAGE(S_PL, S_PLC)
	STAGE(S_UP, S_UPC)
	STAGE(S_PU, S_PUC)

	CHAIN(0, Y9, Y10, Y11, Y15, Y12)
	TESTL $0x000f, R13
	JZ    col1
	LITS(0, Y12)

col1:
	CHAIN(1, S_PLC+0(R12), S_UPC+0(R12), S_PUC+0(R12), Y12, Y13)
	TESTL $0x00f0, R13
	JZ    col2
	LITS(1, Y13)

col2:
	CHAIN(2, S_PLC+32(R12), S_UPC+32(R12), S_PUC+32(R12), Y13, Y14)
	TESTL $0x0f00, R13
	JZ    col3
	LITS(2, Y14)

col3:
	CHAIN(3, S_PLC+64(R12), S_UPC+64(R12), S_PUC+64(R12), Y14, Y15)
	TESTL $0xf000, R13
	JZ    store
	LITS(3, Y15)

store:
	// Columns back into rows: A|C halves from the low unpacks, B|D from
	// the high ones.
	VUNPCKLPD    Y13, Y12, Y4
	VUNPCKHPD    Y13, Y12, Y5
	VUNPCKLPD    Y15, Y14, Y6
	VUNPCKHPD    Y15, Y14, Y7
	VMOVUPD      X4, (R8)(BX*8)
	VMOVUPD      X6, 16(R8)(BX*8)
	VMOVUPD      X5, (R9)(BX*8)
	VMOVUPD      X7, 16(R9)(BX*8)
	VEXTRACTF128 $1, Y4, (R10)(BX*8)
	VEXTRACTF128 $1, Y6, 16(R10)(BX*8)
	VEXTRACTF128 $1, Y5, (R11)(BX*8)
	VEXTRACTF128 $1, Y7, 16(R11)(BX*8)
	VMOVUPD      S_PLC+96(R12), Y9
	VMOVUPD      S_UPC+96(R12), Y10
	VMOVUPD      S_PUC+96(R12), Y11

	ADDQ $4, BX
	CMPQ BX, CX
	JLT  block
	JMP  tail

gather:
	// Bit 4j+l of R13: column j of lane l has code 0. Ascending bits
	// visit each lane's columns in order.
	MOVL R13, DX

gloop:
	BSFL  DX, AX
	MOVL  AX, SI
	ANDL  $3, SI
	MOVQ  S_LIT(R12)(SI*8), DI
	MOVQ  S_LI(R12)(SI*8), R14
	MOVQ  (DI)(R14*8), R15
	MOVQ  R15, S_LITV(R12)(AX*8)
	INCQ  R14
	MOVQ  R14, S_LI(R12)(SI*8)
	LEAL  -1(DX), SI
	ANDL  SI, DX
	JNZ   gloop
	JMP   staged

tail:
	MOVQ a+8(FP), AX
	MOVQ 8(AX), CX // n
	CMPQ BX, CX
	JGE  done
	MOVQ q+0(FP), AX
	MOVQ 32(AX), DX // radius
	XORQ SI, SI

tlane:
	MOVQ   S_OUT(R12)(SI*8), R8
	MOVQ   S_CODE(R12)(SI*8), R9
	MOVQ   S_UP(R12)(SI*8), R10
	MOVQ   S_PL(R12)(SI*8), R11
	MOVQ   S_PU(R12)(SI*8), R13
	MOVQ   S_LIT(R12)(SI*8), R14
	MOVQ   S_LI(R12)(SI*8), R15
	VMOVSD -8(R8)(BX*8), X1 // out[k-1]
	MOVQ   BX, DI

tloop:
	MOVLQSX (R9)(DI*4), AX
	TESTQ   AX, AX
	JZ      tlit

	SUBQ       DX, AX
	VCVTSI2SDQ AX, X2, X0
	VMULSD     X2, X0, X0
	VMOVSD     (R11)(DI*8), X4
	VADDSD     (R10)(DI*8), X4, X4
	VADDSD     X1, X4, X4
	VSUBSD     (R13)(DI*8), X4, X4
	VSUBSD     -8(R11)(DI*8), X4, X4
	VSUBSD     -8(R10)(DI*8), X4, X4
	VADDSD     -8(R13)(DI*8), X4, X4
	VADDSD     X0, X4, X1
	VMOVSD     X1, (R8)(DI*8)
	JMP        tnext

tlit:
	VMOVSD (R14)(R15*8), X1
	INCQ   R15
	VMOVSD X1, (R8)(DI*8)

tnext:
	INCQ DI
	CMPQ DI, CX
	JLT  tloop
	INCQ SI
	CMPQ SI, $4
	JLT  tlane

done:
	VZEROUPPER
	RET
