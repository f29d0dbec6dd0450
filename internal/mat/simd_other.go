//go:build !amd64

package mat

// Only amd64 has assembly kernels. With useAVX2 and useAVX512 false
// constants the compiler drops every call to the stubs below; they
// exist so simd.go and mat.go compile unchanged on every architecture.
const (
	useAVX2   = false
	useAVX512 = false
)

func axpyAVX2(dst, src []float64, alpha float64) { panic("mat: no AVX2 kernels on this architecture") }

func axpyRowsSIMD(dst, src []float64, stride int, alpha []float64, astride, count int, zmm bool) {
	panic("mat: no AVX2 kernels on this architecture")
}

func axpyRows4x8AVX2(dst, src, alpha []float64, rs, count int) {
	panic("mat: no AVX2 kernels on this architecture")
}

func accumAT8AVX2(acc, a, b []float64, k, count int) {
	panic("mat: no AVX2 kernels on this architecture")
}

func gatherRowsSIMD(dst, src []float64, offs []int, alpha []float64, scale float64, fresh, zmm bool) {
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

func addAVX2(dst, src []float64) { panic("mat: no AVX2 kernels on this architecture") }

func scaleAVX2(dst []float64, alpha float64) { panic("mat: no AVX2 kernels on this architecture") }

func reluAVX2(dst, src []float64) { panic("mat: no AVX2 kernels on this architecture") }

func reluGateAVX2(dst, z, grad []float64) { panic("mat: no AVX2 kernels on this architecture") }
