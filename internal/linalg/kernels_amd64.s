// SSE2 quad kernels. Layout contract (see Pack4): panel[4*i+k] = b_k[i],
// len(panel) >= 4*len(a). Each XMM register holds one element position of
// two lanes (pairs), so lane accumulation order matches the scalar loops
// exactly — results are bit-identical to SqDist/Dist per lane.
//
// Register plan (shared by both kernels):
//   DI  = dst, SI = a base, CX = len(a), DX = panel base
//   AX  = element index i, BX = len(a) rounded down to even (2x unroll)
//   X4  = accumulators for lanes 0,1    X5 = accumulators for lanes 2,3
//   X0/X6 = broadcast a[i], a[i+1]      X1,X2,X7,X8 = panel loads
//   X3  = scratch

#include "textflag.h"

// func sqDist4(dst *[4]float64, a, panel []float64)
TEXT ·sqDist4(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), CX
	MOVQ panel_base+32(FP), DX
	XORPS X4, X4
	XORPS X5, X5
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-2, BX

sq_loop2:
	CMPQ AX, BX
	JGE  sq_tail
	MOVSD (SI)(AX*8), X0
	UNPCKLPD X0, X0
	MOVSD 8(SI)(AX*8), X6
	UNPCKLPD X6, X6
	MOVQ AX, R8
	SHLQ $5, R8
	MOVUPD (DX)(R8*1), X1
	MOVUPD 16(DX)(R8*1), X2
	MOVUPD 32(DX)(R8*1), X7
	MOVUPD 48(DX)(R8*1), X8
	MOVAPD X0, X3
	SUBPD  X1, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X0, X3
	SUBPD  X2, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	MOVAPD X6, X3
	SUBPD  X7, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X6, X3
	SUBPD  X8, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	ADDQ $2, AX
	JMP  sq_loop2

sq_tail:
	CMPQ AX, CX
	JGE  sq_done
	MOVSD (SI)(AX*8), X0
	UNPCKLPD X0, X0
	MOVQ AX, R8
	SHLQ $5, R8
	MOVUPD (DX)(R8*1), X1
	MOVUPD 16(DX)(R8*1), X2
	MOVAPD X0, X3
	SUBPD  X1, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X0, X3
	SUBPD  X2, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	INCQ AX
	JMP  sq_tail

sq_done:
	MOVUPD X4, (DI)
	MOVUPD X5, 16(DI)
	RET

// func dist4(dst *[4]float64, a, panel []float64)
// Identical accumulation to sqDist4, followed by lane-wise square roots
// (SQRTPD is correctly rounded, matching math.Sqrt bit for bit).
TEXT ·dist4(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), CX
	MOVQ panel_base+32(FP), DX
	XORPS X4, X4
	XORPS X5, X5
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-2, BX

d_loop2:
	CMPQ AX, BX
	JGE  d_tail
	MOVSD (SI)(AX*8), X0
	UNPCKLPD X0, X0
	MOVSD 8(SI)(AX*8), X6
	UNPCKLPD X6, X6
	MOVQ AX, R8
	SHLQ $5, R8
	MOVUPD (DX)(R8*1), X1
	MOVUPD 16(DX)(R8*1), X2
	MOVUPD 32(DX)(R8*1), X7
	MOVUPD 48(DX)(R8*1), X8
	MOVAPD X0, X3
	SUBPD  X1, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X0, X3
	SUBPD  X2, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	MOVAPD X6, X3
	SUBPD  X7, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X6, X3
	SUBPD  X8, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	ADDQ $2, AX
	JMP  d_loop2

d_tail:
	CMPQ AX, CX
	JGE  d_done
	MOVSD (SI)(AX*8), X0
	UNPCKLPD X0, X0
	MOVQ AX, R8
	SHLQ $5, R8
	MOVUPD (DX)(R8*1), X1
	MOVUPD 16(DX)(R8*1), X2
	MOVAPD X0, X3
	SUBPD  X1, X3
	MULPD  X3, X3
	ADDPD  X3, X4
	MOVAPD X0, X3
	SUBPD  X2, X3
	MULPD  X3, X3
	ADDPD  X3, X5
	INCQ AX
	JMP  d_tail

d_done:
	SQRTPD X4, X4
	SQRTPD X5, X5
	MOVUPD X4, (DI)
	MOVUPD X5, 16(DI)
	RET
