//go:build !amd64

package mat

// Only amd64 has assembly kernels. With useAVX2 and useAVX512 false
// constants the compiler drops every call to the stubs below; they
// exist so simd.go and mat.go compile unchanged on every architecture.
const (
	useAVX2   = false
	useAVX512 = false
	hasFMA    = false
)

func axpyAVX2(dst, src []float64, alpha float64) { panic("mat: no AVX2 kernels on this architecture") }

func axpyRowsSIMD(dst, src []float64, stride int, alpha []float64, astride, count int, zmm bool) {
	panic("mat: no AVX2 kernels on this architecture")
}

func axpyRowsAtSIMD(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int, zmm bool) bool {
	panic("mat: no AVX2 kernels on this architecture")
}

func axpyRows4x8AVX2(dst, src, alpha []float64, rs, count int) {
	panic("mat: no AVX2 kernels on this architecture")
}

func accumAT8AVX2(acc, a, b []float64, k, astride, count int) {
	panic("mat: no AVX2 kernels on this architecture")
}

func axpyRows4x8AVX512(dst, src, alpha []float64, rs, count int) {
	panic("mat: no AVX-512 kernels on this architecture")
}

func accumAT8AVX512(acc, a, b []float64, k, astride, count int) {
	panic("mat: no AVX-512 kernels on this architecture")
}

func axpyRows4x8PairAVX512(dstA, dstB, srcA, srcB, a []float64, offs *[4]int, count int) {
	panic("mat: no AVX-512 kernels on this architecture")
}

func accumAT8PairAVX512(accA, accB, a []float64, offs *[4]int, bA, bB []float64, k int) {
	panic("mat: no AVX-512 kernels on this architecture")
}

func gatherRowsSIMD(dst, src []float64, offs []int, alpha []float64, scale float64, fresh, zmm bool) {
	panic("mat: no AVX2 kernels on this architecture")
}

func gatherCSRSIMD(dst, src []float64, n int, rowPtr []int64, col []int32, verts []int, lo, count, base int, w []float64, mean bool) {
	panic("mat: no AVX2 kernels on this architecture")
}

func dotAVX2(x, y []float64) float64 { panic("mat: no AVX2 kernels on this architecture") }

func dot4AVX2(out, x, y []float64, stride int) { panic("mat: no AVX2 kernels on this architecture") }

func dot16AVX512(dst []float64, dstride int, a []float64, k, rows int, packed []float64) {
	panic("mat: no AVX-512 kernels on this architecture")
}

func adc2AVX2(row, cents []float64, q0, q1 float64) {
	panic("mat: no AVX2 kernels on this architecture")
}

func pqRowsAVX2(out *float64, ids *int32, codes []uint8, tab []float64, m, k, lanes int) {
	panic("mat: no AVX2 kernels on this architecture")
}

func addAVX2(dst, src []float64) { panic("mat: no AVX2 kernels on this architecture") }

func scaleAVX2(dst []float64, alpha float64) { panic("mat: no AVX2 kernels on this architecture") }

func reluAVX2(dst, src []float64) { panic("mat: no AVX2 kernels on this architecture") }

func reluGateAVX2(dst, z, grad []float64) { panic("mat: no AVX2 kernels on this architecture") }

func adamAVX2(w, g, m, v []float64, c *AdamCoef) { panic("mat: no AVX2 kernels on this architecture") }

func expAVX2(dst, src []float64) int { panic("mat: no AVX2 kernels on this architecture") }

func log1pAVX2(dst, src []float64) int { panic("mat: no AVX2 kernels on this architecture") }
