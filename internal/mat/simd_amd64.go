package mat

// useAVX2 and useAVX512 are the kernel level: the portable loops when
// both are false, the AVX2 kernels when only useAVX2 is set, and with
// useAVX512 too the AVX-512 ones where there are any. useAVX2 says the
// CPU has AVX2 and the operating system saves the YMM registers across
// context switches; useAVX512 that it also has AVX512F and the system
// saves the opmask and all 32 ZMM registers. Both are read from CPUID
// and XGETBV once, at package initialisation; only a test sets them
// again, to run a lower level on the same host, and puts them back
// before it returns.
var (
	useAVX2   = detectAVX2()
	useAVX512 = useAVX2 && detectAVX512()
)

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 0x6     // XCR0: SSE and AVX state both enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// detectAVX512 reports AVX512F and the ZMM state enabled. It is only
// asked once detectAVX2 has found CPUID leaf 7 and OSXSAVE.
func detectAVX512() bool {
	const (
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		zmmSave = 0xe6    // XCR0: SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31
	)
	if xcr0, _ := xgetbv(); xcr0&zmmSave != zmmSave {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx512f != 0
}

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It must only be called
// when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// The routines below have no bounds checks: callers (simd.go, and
// PQTable.Query for adc2AVX2) slice every operand to the length the
// routine will touch before the call.
// All end in VZEROUPPER and all are NOSPLIT leaves but axpyRowsSIMD,
// whose frame holds its term list and which, like gatherRowsSIMD,
// finishes in the list walk the two share. Those two take the level as
// an argument: zmm selects the AVX-512 walk and may only be set where
// useAVX512 is; every other routine is AVX2 but dot16AVX512.

// axpyAVX2 computes dst[i] += alpha*src[i] for i < len(dst).
// len(src) must be at least len(dst).
//
//go:noescape
func axpyAVX2(dst, src []float64, alpha float64)

// axpyRowsSIMD computes dst[i] += alpha[t*astride]*src[t*stride+i]
// for i < len(dst), for t = 0..count-1 in that order, skipping zero
// alphas. count must be 1..listMax, stride and astride non-negative,
// len(src) at least (count-1)*stride+len(dst) and len(alpha) at least
// (count-1)*astride+1.
//
//go:noescape
func axpyRowsSIMD(dst, src []float64, stride int, alpha []float64, astride, count int, zmm bool)

// axpyRows4x8AVX2 computes, for r < 4 and t = 0..count-1 in that order,
// dst[8r+i] += alpha[r*rs+t]*src[8t+i] for i < 8, with the products of
// zero alphas masked to +0: skipped, to the bit, on a dst whose every
// element is a sum started from +0. count must be at least 1, rs
// non-negative, len(dst) at least 32, len(src) at least 8*count and
// len(alpha) at least 3*rs+count.
//
//go:noescape
func axpyRows4x8AVX2(dst, src, alpha []float64, rs, count int)

// accumAT8AVX2 computes, for t = 0..count-1 in that order and c < k,
// acc[8c+i] += a[t*k+c]*b[8t+i] for i < 8, with the products of zeros
// of a masked to +0, as axpyRows4x8AVX2 masks them. k and count must be
// at least 1, len(acc) at least 8*k, len(a) at least count*k and len(b)
// at least 8*count.
//
//go:noescape
func accumAT8AVX2(acc, a, b []float64, k, count int)

// gatherRowsSIMD computes dst[i] = (dst[i] + Σ alpha[t]*src[offs[t]+i]) * scale
// for i < len(dst), over t = 0..len(offs)-1 in that order, with +0 in
// place of dst[i] when fresh. len(offs) must be 1..listMax, len(alpha)
// at least len(offs), and every offs[t] in 0..len(src)-len(dst).
//
//go:noescape
func gatherRowsSIMD(dst, src []float64, offs []int, alpha []float64, scale float64, fresh, zmm bool)

func _() {
	// axpyRowsSIMD's frame is laid out for 64 terms; an "invalid
	// array index" error here says listMax has moved without it.
	var x [1]struct{}
	_ = x[listMax-64]
}

// dotAVX2 returns the inner product over len(x) elements.
// len(y) must be at least len(x).
//
//go:noescape
func dotAVX2(x, y []float64) float64

// dot4AVX2 sets out[j] to the inner product of x and
// y[j*stride : j*stride+len(x)] for j < 4. len(out) must be at least
// 4 and len(y) at least 3*stride+len(x).
//
//go:noescape
func dot4AVX2(out, x, y []float64, stride int)

// dot16AVX512 sets dst[r*dstride+j] to the inner product of
// a[r*k : r*k+k] and row j of the sixteen rows packBT16 packed into
// packed, with dotGo's bits, for j < 16 and r < rows. k must be
// non-negative, dstride at least 16, len(dst) at least
// (rows-1)*dstride+16 when rows > 0, len(a) at least rows*k and
// len(packed) at least 16*k.
//
//go:noescape
func dot16AVX512(dst []float64, dstride int, a []float64, k, rows int, packed []float64)

// adc2AVX2 sets row[c] to the inner product of (q0, q1) and
// cents[2c : 2c+2] for c < len(row): the ADC table row of a span-2
// subspace. len(row) must be a multiple of 4 and len(cents) at least
// 2*len(row).
//
//go:noescape
func adc2AVX2(row, cents []float64, q0, q1 float64)

// addAVX2 computes dst[i] += src[i] for i < len(dst).
// len(src) must be at least len(dst).
//
//go:noescape
func addAVX2(dst, src []float64)

// scaleAVX2 computes dst[i] *= alpha.
//
//go:noescape
func scaleAVX2(dst []float64, alpha float64)

// reluAVX2 sets dst[i] to src[i] where src[i] > 0 and to +0 elsewhere.
// len(src) must be at least len(dst).
//
//go:noescape
func reluAVX2(dst, src []float64)

// reluGateAVX2 sets dst[i] to grad[i] where z[i] > 0 and to +0
// elsewhere. len(z) and len(grad) must be at least len(dst).
//
//go:noescape
func reluGateAVX2(dst, z, grad []float64)
