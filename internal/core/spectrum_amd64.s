#include "textflag.h"

// The AVX2 Walsh–Hadamard kernel behind whtStages (spectrum.go). Every
// lane runs the scalar code's additions and subtractions on the same
// operands in the same order, with no FMA, so each output is bitwise
// the one the Go loop computes.

// BFLY4 is the radix-4 butterfly on four lanes: (a, b, c, d) become
// ((a+b)+(c+d), (a−b)+(c−d), (a+b)−(c+d), (a−b)−(c−d)), in place, with
// Y4–Y7 as s0..s3.
#define BFLY4(a, b, c, d) \
	VADDPD b, a, Y4; \
	VSUBPD b, a, Y5; \
	VADDPD d, c, Y6; \
	VSUBPD d, c, Y7; \
	VADDPD Y6, Y4, a; \
	VADDPD Y7, Y5, b; \
	VSUBPD Y6, Y4, c; \
	VSUBPD Y7, Y5, d

// TRANSPOSE4 transposes the 4×4 matrix whose rows are Y0..Y3, in place,
// through Y4–Y7.
#define TRANSPOSE4 \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func whtRadix4AVX2(x []float64, h int)
TEXT ·whtRadix4AVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ h+24(FP), BX
	SHLQ $3, BX             // span in bytes
	LEAQ (BX)(BX*2), R11    // 3 spans
	LEAQ (DI)(CX*8), R8     // end of x

group:
	CMPQ DI, R8
	JAE  done
	MOVQ DI, SI
	LEAQ (DI)(BX*1), R9     // end of the group's first quarter

quad:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (SI)(BX*2), Y2
	VMOVUPD (SI)(R11*1), Y3
	BFLY4(Y0, Y1, Y2, Y3)
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(BX*1)
	VMOVUPD Y2, (SI)(BX*2)
	VMOVUPD Y3, (SI)(R11*1)
	ADDQ    $32, SI
	CMPQ    SI, R9
	JB      quad
	LEAQ    (DI)(BX*4), DI
	JMP     group

done:
	VZEROUPPER
	RET

// func whtGroupsAVX2(x []float64)
TEXT ·whtGroupsAVX2(SB), NOSPLIT, $0-24
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	LEAQ (DI)(CX*8), R8

loop:
	CMPQ DI, R8
	JAE  end
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	// Spans 1 and 2: after the transpose, lane j of Y0..Y3 holds the
	// j-th run of four consecutive entries.
	TRANSPOSE4
	BFLY4(Y0, Y1, Y2, Y3)
	TRANSPOSE4
	// Spans 4 and 8: lane p of Y0..Y3 holds entries p, p+4, p+8, p+12.
	BFLY4(Y0, Y1, Y2, Y3)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	JMP     loop

end:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
