package core

// whtAVX2 selects the AVX2 kernel for whtStages (spectrum_amd64.s). It
// is set once, at init: the CPU must report AVX2 and the OS must save
// the YMM registers across context switches (CPUID and XGETBV, as
// golang.org/x/sys/cpu checks them). Otherwise the Go body runs.
var whtAVX2 = hasAVX2()

// whtRadix4AVX2 runs the radix-4 butterflies of spans h and 2h over x,
// four lanes at a time: h is a power of two >= 4 and len(x) a multiple
// of 4h.
//
//go:noescape
func whtRadix4AVX2(x []float64, h int)

// whtGroupsAVX2 runs the stages of spans 1, 2, 4 and 8 over each
// 16-entry group of x; len(x) is a multiple of 16.
//
//go:noescape
func whtGroupsAVX2(x []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves its state.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
