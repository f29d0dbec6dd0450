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

// hasFMA says the CPU has FMA beside the AVX that useAVX2 found: the
// condition under which math.Exp takes the fused-multiply-add branch
// of exp_amd64.s that expAVX2 replicates. Exp runs expAVX2 only where
// both are set. Unlike the level, no test moves it.
var hasFMA = useAVX2 && detectFMA()

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

// detectFMA reports CPUID.1:ECX.FMA. It is only asked once detectAVX2
// has found AVX and the YMM state enabled, the rest of math's useFMA.
func detectFMA() bool {
	const fma = 1 << 12 // CPUID.1:ECX
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&fma != 0
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

// The routines below have no bounds checks: callers (simd.go,
// PQTable.Query for adc2AVX2 and pqQuery.ScoreRows for pqRowsAVX2)
// slice or check every operand to the length the routine will touch
// before the call.
// All end in VZEROUPPER and all are NOSPLIT leaves but axpyRowsSIMD and
// axpyRowsAtSIMD, whose frames hold their term lists and which, like
// gatherRowsSIMD, finish in the list walk the three share. Those three
// take the level as an argument: zmm selects the AVX-512 walk and may
// only be set where useAVX512 is; every other routine is AVX2 but
// those named AVX512, which only run where useAVX512 is set.

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

// axpyRowsAtSIMD is axpyRowsSIMD over the rows rows lists: it computes
// dst[i] += alpha[r*astride]*src[r*stride+i] for i < len(dst), for each
// r of rows in that order, skipping zero alphas, and reports true. It
// reports false, having written nothing, if a row is not below limit
// (compared unsigned: a negative row is not). rows must hold 1..listMax
// rows, stride and astride be non-negative, and every row below limit
// have its term inside src and alpha.
//
//go:noescape
func axpyRowsAtSIMD(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int, zmm bool) (ok bool)

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
// acc[8c+i] += a[t*astride+c]*b[8t+i] for i < 8, with the products of
// zeros of a masked to +0, as axpyRows4x8AVX2 masks them. k and count
// must be at least 1, astride at least k, len(acc) at least 8*k, len(a)
// at least (count-1)*astride+k and len(b) at least 8*count.
//
//go:noescape
func accumAT8AVX2(acc, a, b []float64, k, astride, count int)

// axpyRows4x8AVX512 is axpyRows4x8AVX2 in ZMM registers, with its
// bits and its contract.
//
//go:noescape
func axpyRows4x8AVX512(dst, src, alpha []float64, rs, count int)

// accumAT8AVX512 is accumAT8AVX2 in ZMM registers, with its bits and
// its contract.
//
//go:noescape
func accumAT8AVX512(acc, a, b []float64, k, astride, count int)

// axpyRows4x8PairAVX512 computes, for r < 4 and t = 0..count-1 in that
// order, dstA[8r+i] += a[offs[r]+t]*srcA[8t+i] and dstB[8r+i] +=
// a[offs[r]+t]*srcB[8t+i] for i < 8, with the products of zero alphas
// masked to +0 as axpyRows4x8AVX2 masks them. count must be at least 1,
// len(dstA) and len(dstB) at least 32, len(srcA) and len(srcB) at least
// 8*count, and every offs[r] in 0..len(a)-count.
//
//go:noescape
func axpyRows4x8PairAVX512(dstA, dstB, srcA, srcB, a []float64, offs *[4]int, count int)

// accumAT8PairAVX512 computes, for t = 0..3 in that order and c < k,
// accA[8c+i] += a[offs[t]+c]*bA[8t+i] and accB[8c+i] +=
// a[offs[t]+c]*bB[8t+i] for i < 8, with the products of zeros of a
// masked to +0 as accumAT8AVX2 masks them. k must be at least 1,
// len(accA) and len(accB) at least 8*k, len(bA) and len(bB) at least
// 32, and every offs[t] in 0..len(a)-k.
//
//go:noescape
func accumAT8PairAVX512(accA, accB, a []float64, offs *[4]int, bA, bB []float64, k int)

// gatherRowsSIMD computes dst[i] =(dst[i] + Σ alpha[t]*src[offs[t]+i]) * scale
// for i < len(dst), over t = 0..len(offs)-1 in that order, with +0 in
// place of dst[i] when fresh. len(offs) must be 1..listMax, len(alpha)
// at least len(offs), and every offs[t] in 0..len(src)-len(dst).
//
//go:noescape
func gatherRowsSIMD(dst, src []float64, offs []int, alpha []float64, scale float64, fresh, zmm bool)

// gatherCSRSIMD is GatherCSR's kernel, on count vertices from position
// lo of the block: the vertex at position p is verts[p], or p itself
// when verts is nil, and its row of dst starts at (v-base)*n. n must be
// simdMinLen..GatherCSRMax (a row's first four lanes are read whole),
// and every vertex, adjacency list and neighbour inside the slices, as
// checkCSRBlock checks. It runs the same AVX2 loops at both amd64
// levels.
//
//go:noescape
func gatherCSRSIMD(dst, src []float64, n int, rowPtr []int64, col []int32, verts []int, lo, count, base int, w []float64, mean bool)

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

// pqRowsAVX2 sets out[i], for i < lanes, to the sum over s = 0..m-1,
// in that order and from +0, of tab[s*k + codes[ids[i]*m + s]]: the
// PQ scores of lanes rows, each row one chain, the chains independent.
// out and ids point at lanes elements each; lanes must be 2, 4 or 8, m
// and k non-negative, every ids[i] a row inside codes, and len(tab)
// at least (m-1)*k+256, so that any code byte reads inside it.
//
//go:noescape
func pqRowsAVX2(out *float64, ids *int32, codes []uint8, tab []float64, m, k, lanes int)

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

// adamAVX2 is Adam over len(w) elements, four at a time with a scalar
// tail, in adamGo's operations and order. len(g), len(m) and len(v)
// must be at least len(w).
//
//go:noescape
func adamAVX2(w, g, m, v []float64, c *AdamCoef)

// expAVX2 sets dst[i] to math.Exp(src[i]), with its bits, four
// elements at a time (the last one to four through a mask), until a
// group of four holds an input it does not replicate: one that is not
// finite, above archExp's overflow bound, or whose 2^k scale is not a
// normal number. It writes nothing of that group and returns its
// start, or len(dst). It runs only where hasFMA is set. len(src) must
// be at least len(dst); dst may be src.
//
//go:noescape
func expAVX2(dst, src []float64) int

// log1pAVX2 is expAVX2's contract for math.Log1p, over the inputs
// -1 < x < 2^53.
//
//go:noescape
func log1pAVX2(dst, src []float64) int
