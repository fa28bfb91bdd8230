//go:build amd64 && !noasm

#include "textflag.h"

// The four-lane Huffman decode loop (see lanedecode.go): decodeLanes4Asm
// is decodeLanes4Generic with every lane's window and byte pointer in a
// register for the whole call. It needs BMI1 (TZCNT) and BMI2 (SHLX,
// SHRX). It has no frame and does not touch BP.
//
// Registers:
//   CX, DX, SI, DI  lane 0-3 windows
//   R8-R11          lane 0-3 byte pointers
//   R12             table
//   R13             canonical symbols
//   R14             next output quad
//   R15             rounds left in the iteration
//   AX, BX          entry, scratch

// LaneDecode offsets (TestAsmStructOffsets pins them).
#define LD_BODY   0
#define LD_OUT    24
#define LD_OUTLEN 32
#define LD_SYMS   48
#define LD_TABLE  72
#define LD_POS    96
#define LD_WIN    128
#define LD_ROUNDS 160

// LOOKUP loads the first-level entry for window w's top 12 bits into AX
// and jumps to link when it is a link.
#define LOOKUP(w, link) \
	MOVQ  w, BX;           \
	SHRQ  $52, BX;         \
	MOVL  (R12)(BX*4), AX; \
	TESTB $0x40, AL;       \
	JNZ   link

// CONSUME takes the code of entry AX off window w and stores its symbol
// at off(R14).
#define CONSUME(w, off) \
	SHLXQ AX, w, w;        \
	SHRL  $8, AX;          \
	MOVL  (R13)(AX*4), AX; \
	MOVL  AX, off(R14)

// SUBTABLE replaces link entry AX by the subtable entry for window w's
// next bits: (w<<12) >> (64 − subtable bits), past the subtable offset.
#define SUBTABLE(w) \
	MOVQ  w, BX;      \
	SHLQ  $12, BX;    \
	SHRXQ AX, BX, BX; \
	SHRL  $8, AX;     \
	ADDL  BX, AX;     \
	MOVL  (R12)(AX*4), AX

// RELOAD moves pointer p past the whole bytes window w has consumed and
// reloads w with its sentinel: c = TZCNT(w), p += c>>3,
// w = (BE64(p) | 1) << (c&7).
#define RELOAD(w, p) \
	TZCNTQ w, BX;  \
	MOVQ   BX, AX; \
	SHRQ   $3, AX; \
	ADDQ   AX, p;  \
	ANDL   $7, BX; \
	MOVQ   (p), w; \
	BSWAPQ w;      \
	ORQ    $1, w;  \
	SHLXQ  BX, w, w

// func decodeLanes4Asm(d *LaneDecode)
TEXT ·decodeLanes4Asm(SB), NOSPLIT, $0-8
	MOVQ d+0(FP), AX
	MOVQ LD_BODY(AX), BX
	MOVQ LD_POS+0(AX), R8
	ADDQ BX, R8
	MOVQ LD_POS+8(AX), R9
	ADDQ BX, R9
	MOVQ LD_POS+16(AX), R10
	ADDQ BX, R10
	MOVQ LD_POS+24(AX), R11
	ADDQ BX, R11
	MOVQ LD_WIN+0(AX), CX
	MOVQ LD_WIN+8(AX), DX
	MOVQ LD_WIN+16(AX), SI
	MOVQ LD_WIN+24(AX), DI
	MOVQ LD_TABLE(AX), R12
	MOVQ LD_SYMS(AX), R13
	MOVQ LD_OUT(AX), R14
	MOVQ LD_OUTLEN(AX), BX
	TESTQ BX, BX
	JZ   done

iter:
	MOVQ d+0(FP), AX
	MOVQ LD_ROUNDS(AX), R15

round:
	LOOKUP(CX, link0)
sym0:
	CONSUME(CX, 0)
	LOOKUP(DX, link1)
sym1:
	CONSUME(DX, 4)
	LOOKUP(SI, link2)
sym2:
	CONSUME(SI, 8)
	LOOKUP(DI, link3)
sym3:
	CONSUME(DI, 12)
	ADDQ $16, R14
	DECQ R15
	JNZ  round

	RELOAD(CX, R8)
	RELOAD(DX, R9)
	RELOAD(SI, R10)
	RELOAD(DI, R11)

	// Another iteration while R14 is short of the end of Out.
	MOVQ d+0(FP), AX
	MOVQ LD_OUTLEN(AX), BX
	SHLQ $2, BX
	ADDQ LD_OUT(AX), BX
	CMPQ R14, BX
	JB   iter

done:
	MOVQ d+0(FP), AX
	MOVQ LD_BODY(AX), BX
	SUBQ BX, R8
	MOVQ R8, LD_POS+0(AX)
	SUBQ BX, R9
	MOVQ R9, LD_POS+8(AX)
	SUBQ BX, R10
	MOVQ R10, LD_POS+16(AX)
	SUBQ BX, R11
	MOVQ R11, LD_POS+24(AX)
	MOVQ CX, LD_WIN+0(AX)
	MOVQ DX, LD_WIN+8(AX)
	MOVQ SI, LD_WIN+16(AX)
	MOVQ DI, LD_WIN+24(AX)
	RET

	// Links leave the straight-line rounds and rejoin them at the
	// lane's CONSUME.
link0:
	SUBTABLE(CX)
	JMP sym0

link1:
	SUBTABLE(DX)
	JMP sym1

link2:
	SUBTABLE(SI)
	JMP sym2

link3:
	SUBTABLE(DI)
	JMP sym3
