#include "textflag.h"

// AVX2 kernels for linalg.go (see the summation-order rule there). Each
// YMM lane is one output element's own accumulator: it starts at +0 and
// takes its products in index order through separate VMULPD and VADDPD,
// so every lane computes the one-row loop's sum bit for bit. No lane
// ever adds into another, and there is no FMA.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL CX, CX
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX          // AVX2 is leaf 7's EBX bit 5
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// TILE4x4 loads the 4×4 tile of the four rows at base, base+DX,
// base+2·DX and base+SI (SI = 3·DX) and columns off..off+3, transposed:
// Y0..Y3 hold its columns, four rows' values each.
#define TILE4x4(base, off) \
	VMOVUPD     off(base), X4                  \
	VINSERTF128 $1, off(base)(DX*2), Y4, Y4    \
	VMOVUPD     off(base)(DX*1), X5            \
	VINSERTF128 $1, off(base)(SI*1), Y5, Y5    \
	VMOVUPD     off+16(base), X6               \
	VINSERTF128 $1, off+16(base)(DX*2), Y6, Y6 \
	VMOVUPD     off+16(base)(DX*1), X7         \
	VINSERTF128 $1, off+16(base)(SI*1), Y7, Y7 \
	VUNPCKLPD   Y5, Y4, Y0                     \
	VUNPCKHPD   Y5, Y4, Y1                     \
	VUNPCKLPD   Y7, Y6, Y2                     \
	VUNPCKHPD   Y7, Y6, Y3

// COLUMN4 loads one column of the same four rows into Y0.
#define COLUMN4(base) \
	VMOVSD      (base), X0                \
	VMOVHPD     (base)(DX*1), X0, X0      \
	VMOVSD      (base)(DX*2), X1          \
	VMOVHPD     (base)(SI*1), X1, X1      \
	VINSERTF128 $1, X1, Y0, Y0

// ACC4 adds the four tile columns, scaled by Y8..Y11, to acc in
// column order.
#define ACC4(acc) \
	VMULPD Y8, Y0, Y0   \
	VADDPD Y0, acc, acc \
	VMULPD Y9, Y1, Y1   \
	VADDPD Y1, acc, acc \
	VMULPD Y10, Y2, Y2  \
	VADDPD Y2, acc, acc \
	VMULPD Y11, Y3, Y3  \
	VADDPD Y3, acc, acc

// func matVec16(out, a, x, bias []float64, r0, r1, r2, r3 int)
//
// For each of the four 4-row blocks of a starting at rows r0..r3, sets
// out[r+t] = Σⱼ a[r+t][j]·x[j], plus bias[r+t] when bias is not empty.
// a has len(x) columns. The four blocks are four independent chains of
// adds, which the processor overlaps; a block may repeat another, and
// then writes the same values twice.
TEXT ·matVec16(SB), NOSPLIT, $0-128
	MOVQ x_base+48(FP), DI
	MOVQ x_len+56(FP), CX
	LEAQ (CX*8), DX      // row stride in bytes
	LEAQ (DX)(DX*2), SI  // three rows
	MOVQ a_base+24(FP), AX
	MOVQ r0+96(FP), R8
	IMULQ DX, R8
	ADDQ AX, R8
	MOVQ r1+104(FP), R9
	IMULQ DX, R9
	ADDQ AX, R9
	MOVQ r2+112(FP), R10
	IMULQ DX, R10
	ADDQ AX, R10
	MOVQ r3+120(FP), R11
	IMULQ DX, R11
	ADDQ AX, R11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ CX, BX
	SHRQ $2, BX          // whole 4-column tiles
	JZ   mvtail

mvtile:
	VBROADCASTSD (DI), Y8
	VBROADCASTSD 8(DI), Y9
	VBROADCASTSD 16(DI), Y10
	VBROADCASTSD 24(DI), Y11
	TILE4x4(R8, 0)
	ACC4(Y12)
	TILE4x4(R9, 0)
	ACC4(Y13)
	TILE4x4(R10, 0)
	ACC4(Y14)
	TILE4x4(R11, 0)
	ACC4(Y15)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ BX
	JNZ  mvtile

mvtail:
	ANDQ $3, CX          // the last len(x) mod 4 columns, one at a time
	JZ   mvdone

mvcol:
	VBROADCASTSD (DI), Y8
	COLUMN4(R8)
	VMULPD Y8, Y0, Y0
	VADDPD Y0, Y12, Y12
	COLUMN4(R9)
	VMULPD Y8, Y0, Y0
	VADDPD Y0, Y13, Y13
	COLUMN4(R10)
	VMULPD Y8, Y0, Y0
	VADDPD Y0, Y14, Y14
	COLUMN4(R11)
	VMULPD Y8, Y0, Y0
	VADDPD Y0, Y15, Y15
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  mvcol

mvdone:
	MOVQ out_base+0(FP), DI
	MOVQ bias_base+72(FP), SI
	MOVQ bias_len+80(FP), BX
	MOVQ r0+96(FP), R8
	MOVQ r1+104(FP), R9
	MOVQ r2+112(FP), R10
	MOVQ r3+120(FP), R11
	TESTQ BX, BX
	JZ   mvstore
	VADDPD (SI)(R8*8), Y12, Y12
	VADDPD (SI)(R9*8), Y13, Y13
	VADDPD (SI)(R10*8), Y14, Y14
	VADDPD (SI)(R11*8), Y15, Y15

mvstore:
	VMOVUPD Y12, (DI)(R8*8)
	VMOVUPD Y13, (DI)(R9*8)
	VMOVUPD Y14, (DI)(R10*8)
	VMOVUPD Y15, (DI)(R11*8)
	VZEROUPPER
	RET

// func matTVec16(out, a, u []float64, c0, c1, c2, c3 int)
//
// For each of the four 4-column groups of a starting at columns c0..c3,
// sets out[c+t] = Σᵢ a[i][c+t]·u[i] over the rows with u[i] ≠ 0, in row
// order. a has len(out) columns and len(u) rows. A group may repeat
// another, and then writes the same values twice.
TEXT ·matTVec16(SB), NOSPLIT, $0-104
	MOVQ out_len+8(FP), DX
	SHLQ $3, DX          // row stride in bytes
	MOVQ a_base+24(FP), AX
	MOVQ u_base+48(FP), DI
	MOVQ u_len+56(FP), CX
	MOVQ c0+72(FP), R8
	SHLQ $3, R8
	MOVQ c1+80(FP), R9
	SHLQ $3, R9
	MOVQ c2+88(FP), R10
	SHLQ $3, R10
	MOVQ c3+96(FP), R11
	SHLQ $3, R11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	TESTQ CX, CX
	JZ   mtdone

mtrow:
	MOVQ (DI), BX
	SHLQ $1, BX          // ±0 is skipped; NaN and every other value is not
	JZ   mtnext
	VBROADCASTSD (DI), Y8
	VMULPD (AX)(R8*1), Y8, Y0
	VADDPD Y0, Y12, Y12
	VMULPD (AX)(R9*1), Y8, Y1
	VADDPD Y1, Y13, Y13
	VMULPD (AX)(R10*1), Y8, Y2
	VADDPD Y2, Y14, Y14
	VMULPD (AX)(R11*1), Y8, Y3
	VADDPD Y3, Y15, Y15

mtnext:
	ADDQ DX, AX
	ADDQ $8, DI
	DECQ CX
	JNZ  mtrow

mtdone:
	MOVQ out_base+0(FP), DI
	VMOVUPD Y12, (DI)(R8*1)
	VMOVUPD Y13, (DI)(R9*1)
	VMOVUPD Y14, (DI)(R10*1)
	VMOVUPD Y15, (DI)(R11*1)
	VZEROUPPER
	RET

// SAMPLE4 adds the four tile columns, each scaled by one of the
// sample's values at x0..x3, to the sample's accumulator in column
// order.
#define SAMPLE4(x0, x1, x2, x3, acc) \
	VBROADCASTSD x0, Y4 \
	VMULPD       Y0, Y4, Y4 \
	VADDPD       Y4, acc, acc \
	VBROADCASTSD x1, Y5 \
	VMULPD       Y1, Y5, Y5 \
	VADDPD       Y5, acc, acc \
	VBROADCASTSD x2, Y6 \
	VMULPD       Y2, Y6, Y6 \
	VADDPD       Y6, acc, acc \
	VBROADCASTSD x3, Y7 \
	VMULPD       Y3, Y7, Y7 \
	VADDPD       Y7, acc, acc

// SAMPLE1 adds the column in Y0, scaled by the sample's value at x, to
// its accumulator.
#define SAMPLE1(x, acc) \
	VBROADCASTSD x, Y4 \
	VMULPD       Y0, Y4, Y4 \
	VADDPD       Y4, acc, acc

// func dense4x8(y, x, w, b []float64, k, m, r, s int)
//
// For the four rows r..r+3 of w (m×k) and the eight samples s..s+7 of x
// (rows of k), sets y[(s+t)·m + r+i] = Σⱼ w[r+i][j]·x[s+t][j] + b[r+i].
// Each transposed 4×4 tile of w serves all eight samples, whose sums
// are eight independent chains of adds.
TEXT ·dense4x8(SB), NOSPLIT, $0-128
	MOVQ k+96(FP), CX
	LEAQ (CX*8), DX      // row stride of w and of x, in bytes
	LEAQ (DX)(DX*2), SI  // three rows
	MOVQ w_base+48(FP), R8
	MOVQ r+112(FP), AX
	IMULQ DX, AX
	ADDQ AX, R8          // w's row r
	MOVQ x_base+24(FP), R9
	MOVQ s+120(FP), AX
	IMULQ DX, AX
	ADDQ AX, R9          // x's sample s
	LEAQ (R9)(DX*4), R10 // x's sample s+4
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ CX, BX
	SHRQ $2, BX          // whole 4-column tiles
	JZ   dtail

dtile:
	TILE4x4(R8, 0)
	SAMPLE4((R9), 8(R9), 16(R9), 24(R9), Y8)
	SAMPLE4((R9)(DX*1), 8(R9)(DX*1), 16(R9)(DX*1), 24(R9)(DX*1), Y9)
	SAMPLE4((R9)(DX*2), 8(R9)(DX*2), 16(R9)(DX*2), 24(R9)(DX*2), Y10)
	SAMPLE4((R9)(SI*1), 8(R9)(SI*1), 16(R9)(SI*1), 24(R9)(SI*1), Y11)
	SAMPLE4((R10), 8(R10), 16(R10), 24(R10), Y12)
	SAMPLE4((R10)(DX*1), 8(R10)(DX*1), 16(R10)(DX*1), 24(R10)(DX*1), Y13)
	SAMPLE4((R10)(DX*2), 8(R10)(DX*2), 16(R10)(DX*2), 24(R10)(DX*2), Y14)
	SAMPLE4((R10)(SI*1), 8(R10)(SI*1), 16(R10)(SI*1), 24(R10)(SI*1), Y15)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ BX
	JNZ  dtile

dtail:
	ANDQ $3, CX          // the last k mod 4 columns, one at a time
	JZ   ddone

dcol:
	COLUMN4(R8)
	SAMPLE1((R9), Y8)
	SAMPLE1((R9)(DX*1), Y9)
	SAMPLE1((R9)(DX*2), Y10)
	SAMPLE1((R9)(SI*1), Y11)
	SAMPLE1((R10), Y12)
	SAMPLE1((R10)(DX*1), Y13)
	SAMPLE1((R10)(DX*2), Y14)
	SAMPLE1((R10)(SI*1), Y15)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JNZ  dcol

ddone:
	MOVQ r+112(FP), AX
	MOVQ b_base+72(FP), BX
	VMOVUPD (BX)(AX*8), Y0
	MOVQ m+104(FP), DX
	SHLQ $3, DX          // row stride of y, in bytes
	LEAQ (DX)(DX*2), SI
	MOVQ s+120(FP), CX
	IMULQ DX, CX
	LEAQ (CX)(AX*8), CX
	ADDQ y_base+0(FP), CX // y's row s, column r
	LEAQ (CX)(DX*4), BX   // y's row s+4, column r
	VADDPD Y0, Y8, Y8
	VADDPD Y0, Y9, Y9
	VADDPD Y0, Y10, Y10
	VADDPD Y0, Y11, Y11
	VADDPD Y0, Y12, Y12
	VADDPD Y0, Y13, Y13
	VADDPD Y0, Y14, Y14
	VADDPD Y0, Y15, Y15
	VMOVUPD Y8, (CX)
	VMOVUPD Y9, (CX)(DX*1)
	VMOVUPD Y10, (CX)(DX*2)
	VMOVUPD Y11, (CX)(SI*1)
	VMOVUPD Y12, (BX)
	VMOVUPD Y13, (BX)(DX*1)
	VMOVUPD Y14, (BX)(DX*2)
	VMOVUPD Y15, (BX)(SI*1)
	VZEROUPPER
	RET
