#include "textflag.h"

// func dotRows(dst, rows, x []float32)
//
// Sets dst[r] = Dot(rows[r*d:(r+1)*d], x) with d = len(x), summed in Dot's
// order so the result is bit-identical: one SSE register holds the four lane
// accumulators s0..s3 (MULPS then ADDPS, never FMA, which rounds once instead
// of twice), the horizontal sum is ((s0+s1)+s2)+s3 with ADDSS, and the tail
// elements follow in order with MULSS/ADDSS. Two rows per iteration share the
// query loads; an odd last row runs alone. DotRows guarantees
// len(rows) == len(dst)*d.
//
// Registers: DI dst, CX rows left, SI row A, R10 row B, DX x, R8 d,
// R9 d&^3, R11 row stride in bytes, R12 pair stride, BX element index.
TEXT ·dotRows(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9
	MOVQ R8, R11
	SHLQ $2, R11
	LEAQ (SI)(R11*1), R10
	MOVQ R11, R12
	SHLQ $1, R12

pairs:
	CMPQ CX, $2
	JB   single
	XORPS X0, X0
	XORPS X1, X1
	XORQ BX, BX
	TESTQ R9, R9
	JZ   pairSum

pairLanes:
	MOVUPS (DX)(BX*4), X2
	MOVUPS (SI)(BX*4), X3
	MOVUPS (R10)(BX*4), X4
	MULPS  X2, X3
	MULPS  X2, X4
	ADDPS  X3, X0
	ADDPS  X4, X1
	ADDQ   $4, BX
	CMPQ   BX, R9
	JB     pairLanes

pairSum:
	PSHUFD $0x55, X0, X2
	PSHUFD $0xaa, X0, X3
	PSHUFD $0xff, X0, X4
	ADDSS  X2, X0
	ADDSS  X3, X0
	ADDSS  X4, X0
	PSHUFD $0x55, X1, X5
	PSHUFD $0xaa, X1, X6
	PSHUFD $0xff, X1, X7
	ADDSS  X5, X1
	ADDSS  X6, X1
	ADDSS  X7, X1
	CMPQ   BX, R8
	JAE    pairStore

pairTail:
	MOVSS (DX)(BX*4), X2
	MOVSS (SI)(BX*4), X3
	MOVSS (R10)(BX*4), X4
	MULSS X2, X3
	MULSS X2, X4
	ADDSS X3, X0
	ADDSS X4, X1
	INCQ  BX
	CMPQ  BX, R8
	JB    pairTail

pairStore:
	MOVSS X0, (DI)
	MOVSS X1, 4(DI)
	ADDQ  $8, DI
	ADDQ  R12, SI
	ADDQ  R12, R10
	SUBQ  $2, CX
	JMP   pairs

single:
	TESTQ CX, CX
	JZ    done
	XORPS X0, X0
	XORQ  BX, BX
	TESTQ R9, R9
	JZ    singleSum

singleLanes:
	MOVUPS (DX)(BX*4), X2
	MOVUPS (SI)(BX*4), X3
	MULPS  X2, X3
	ADDPS  X3, X0
	ADDQ   $4, BX
	CMPQ   BX, R9
	JB     singleLanes

singleSum:
	PSHUFD $0x55, X0, X2
	PSHUFD $0xaa, X0, X3
	PSHUFD $0xff, X0, X4
	ADDSS  X2, X0
	ADDSS  X3, X0
	ADDSS  X4, X0
	CMPQ   BX, R8
	JAE    singleStore

singleTail:
	MOVSS (DX)(BX*4), X2
	MOVSS (SI)(BX*4), X3
	MULSS X2, X3
	ADDSS X3, X0
	INCQ  BX
	CMPQ  BX, R8
	JB    singleTail

singleStore:
	MOVSS X0, (DI)

done:
	RET
