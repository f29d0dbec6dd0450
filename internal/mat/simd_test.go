package mat

// Differential suite for the vector primitives: at every kernel level
// the host has — the portable loops, AVX2, AVX-512; the tests named for
// AVX2 predate the third level and run at all three — each routine must
// return the bits of the portable Go loops for every length and
// alignment, for ordinary values and for the ones where a fused
// multiply-add, a different accumulator layout or a reordered reduction
// would show — signed zeros, subnormals, magnitudes whose products
// overflow or underflow. NaNs are compared by class (the payload
// depends on operand order, which Go does not fix). The second half
// pins the tiled GEMM loops, at every level, to untiled loops over the
// portable primitives. The list kernel under a·b and aᵀ·b (axpyRows)
// gets both treatments, and a third for where its zeros fall; so do
// the two kernels that replace it on rows of 8 (axpyRows4x8 under a·b,
// accumAT8 under aᵀ·b), whose GEMMs are also held to the untiled loops
// on hostile values, and the sixteen-row dot under a·bᵀ (dot16).

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gsgcn/internal/rng"
)

func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d: %v (%#016x) != %v (%#016x)", tag, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// valueClasses generate operands; each is paired with every alpha.
var valueClasses = []struct {
	name string
	gen  func(r *rng.RNG) float64
}{
	{"normal", func(r *rng.RNG) float64 { return r.NormFloat64() }},
	{"signed-zeros", func(r *rng.RNG) float64 {
		switch r.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return r.NormFloat64()
	}},
	{"subnormal", func(r *rng.RNG) float64 {
		// Half subnormals, half values near 1, so that sums and
		// products land on both sides of the normal range's edge.
		if r.Intn(2) == 0 {
			return r.NormFloat64()
		}
		v := math.Float64frombits(r.Uint64() & (1<<52 - 1))
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"huge-tiny", func(r *rng.RNG) float64 {
		// Products overflow to ±Inf and underflow to ±0; sums of
		// infinities of both signs turn into NaN.
		mags := []float64{1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e154, 1e-154, 1}
		v := mags[r.Intn(len(mags))] * (1 + r.Float64())
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"specials", func(r *rng.RNG) float64 {
		switch r.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return r.NormFloat64()
	}},
}

var alphas = []float64{0.37, -1.5, 1, 0, math.Copysign(0, -1), 1e-310, 1e300, math.Inf(1), math.NaN()}

const (
	maxDiffLen    = 130
	maxDiffOffset = 3
)

// offsetSlice returns n fresh values at element offset off of a larger
// backing array, so 8-byte-aligned starts of every residue mod 32 are
// exercised.
func offsetSlice(r *rng.RNG, gen func(*rng.RNG) float64, off, n int) []float64 {
	buf := make([]float64, off+n+maxDiffOffset+1)
	for i := range buf {
		buf[i] = gen(r)
	}
	return buf[off : off+n : off+n]
}

// Kernel levels, lowest first: what useAVX2 and useAVX512 select.
const (
	levelGo = iota
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{"go", "avx2", "avx512"}

// atEveryLevel runs fn as one subtest per kernel level, with the
// package forced to it, and logs the level each ran at; a level above
// the host's is skipped, with the reason.
func atEveryLevel(t *testing.T, fn func(t *testing.T)) {
	for lvl, name := range levelNames {
		lvl, name := lvl, name
		t.Run(name, func(t *testing.T) {
			if host := hostLevel(); lvl > host {
				t.Skipf("no %s kernels here: the host's highest level is %s", name, levelNames[host])
			}
			forceLevel(t, lvl)
			t.Logf("kernel level %s", name)
			fn(t)
		})
	}
}

// kernelSet is every routine of one level, taken directly: the entry
// points in simd.go cut short vectors over to the Go loops, these run
// the level's code, assembly tails included, at every length.
type kernelSet struct {
	axpy        func(dst, src []float64, alpha float64)
	add         func(dst, src []float64)
	scale       func(dst []float64, alpha float64)
	dot         func(x, y []float64) float64
	dot4        func(out, x, y []float64, stride int)
	relu        func(dst, src []float64)
	reluGate    func(dst, z, grad []float64)
	axpyRows    func(dst, src []float64, stride int, alpha []float64, astride, count int)
	axpyRowsAt  func(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int) bool
	axpyRows4x8 func(dst, src, alpha []float64, rs, count int)
	accumAT8    func(acc, a, b []float64, k, astride, count int)
	gatherRows  func(dst, src []float64, offs []int, alpha []float64, scale float64, fresh bool)
	adam        func(w, g, m, v []float64, c *AdamCoef)
}

// levelKernels returns the routines of the level the package is at.
func levelKernels() kernelSet {
	if !useAVX2 {
		return kernelSet{
			axpy: axpyGo, add: addGo, scale: scaleGo, dot: dotGo,
			dot4: func(out, x, y []float64, stride int) {
				for j := range out[:4] {
					out[j] = dotGo(x, y[j*stride:j*stride+len(x)])
				}
			},
			relu: reluGo, reluGate: reluGateGo, axpyRows: axpyRowsGo,
			axpyRowsAt: func(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int) bool {
				for _, r := range rows {
					if uint(r) >= uint(limit) {
						return false
					}
				}
				axpyRowsAtGo(dst, src, stride, alpha, astride, rows)
				return true
			},
			axpyRows4x8: axpyRows4x8Go, accumAT8: accumAT8Go, gatherRows: gatherRowsGo,
			adam: adamGo,
		}
	}
	zmm := useAVX512
	rows4x8, at8 := axpyRows4x8AVX2, accumAT8AVX2
	if zmm {
		rows4x8, at8 = axpyRows4x8AVX512, accumAT8AVX512
	}
	return kernelSet{
		axpy: axpyAVX2, add: addAVX2, scale: scaleAVX2, dot: dotAVX2, dot4: dot4AVX2,
		relu: reluAVX2, reluGate: reluGateAVX2,
		axpyRows: func(dst, src []float64, stride int, alpha []float64, astride, count int) {
			axpyRowsSIMD(dst, src, stride, alpha, astride, count, zmm)
		},
		axpyRowsAt: func(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int) bool {
			return axpyRowsAtSIMD(dst, src, stride, alpha, astride, rows, limit, zmm)
		},
		axpyRows4x8: rows4x8,
		accumAT8:    at8,
		gatherRows: func(dst, src []float64, offs []int, alpha []float64, scale float64, fresh bool) {
			gatherRowsSIMD(dst, src, offs, alpha, scale, fresh, zmm)
		},
		adam: adamAVX2,
	}
}

func TestAxpyAVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testAxpyMatchesPortable) }

func testAxpyMatchesPortable(t *testing.T) {
	k := levelKernels()
	for _, vc := range valueClasses {
		r := rng.New(101)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				src := offsetSlice(r, vc.gen, off, n)
				base := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), n)
				for _, alpha := range alphas {
					want := append([]float64(nil), base...)
					got := append([]float64(nil), base...)
					axpyGo(want, src, alpha)
					k.axpy(got, src, alpha)
					requireSameBits(t, fmt.Sprintf("%s n=%d off=%d alpha=%v", vc.name, n, off, alpha), got, want)
				}
			}
		}
	}
}

func TestDotAVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testDotMatchesPortable) }

func testDotMatchesPortable(t *testing.T) {
	k := levelKernels()
	for _, vc := range valueClasses {
		r := rng.New(103)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				x := offsetSlice(r, vc.gen, off, n)
				y := offsetSlice(r, vc.gen, (off+2)%(maxDiffOffset+1), n)
				want, got := dotGo(x, y), k.dot(x, y)
				if !sameBits(got, want) {
					t.Fatalf("%s n=%d off=%d: %v (%#016x) != %v (%#016x)", vc.name, n, off,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestDot4AVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testDot4MatchesPortable) }

func testDot4MatchesPortable(t *testing.T) {
	k := levelKernels()
	for _, vc := range valueClasses {
		r := rng.New(107)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				x := offsetSlice(r, vc.gen, off, n)
				// Rows packed back to back (stride n) and with a gap.
				for _, stride := range []int{n, n + 3} {
					y := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), 3*stride+n)
					var want, got [4]float64
					for j := range want {
						want[j] = dotGo(x, y[j*stride:j*stride+n])
					}
					k.dot4(got[:], x, y, stride)
					requireSameBits(t, fmt.Sprintf("%s n=%d off=%d stride=%d", vc.name, n, off, stride), got[:], want[:])
				}
			}
		}
	}
}

// TestDot16MatchesPortable: the sixteen-row kernel against dotGo at
// every inner length (each 4-element chunk count, each tail of 0..3),
// alignment and value class, for two rows of a into rows of dst with a
// gap. Only the AVX-512 level has the kernel.
func TestDot16MatchesPortable(t *testing.T) {
	if hostLevel() < levelAVX512 {
		t.Skipf("no avx512 kernels here: the host's highest level is %s", levelNames[hostLevel()])
	}
	const rows, dstride = 2, 19
	for _, vc := range valueClasses {
		r := rng.New(163)
		for k := 0; k <= maxDiffLen; k++ {
			for off := 0; off <= maxDiffOffset; off++ {
				a := offsetSlice(r, vc.gen, off, rows*k)
				b := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), 16*k)
				packed := make([]float64, 16*k)
				packBT16(packed, b, k, 1)
				got := make([]float64, (rows-1)*dstride+16)
				dot16(got, dstride, a, k, rows, packed)
				for i := 0; i < rows; i++ {
					want := make([]float64, 16)
					for j := range want {
						want[j] = dotGo(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
					}
					requireSameBits(t, fmt.Sprintf("%s k=%d off=%d row %d", vc.name, k, off, i), got[i*dstride:i*dstride+16], want)
				}
			}
		}
	}
}

func TestAddScaleAVX2MatchPortable(t *testing.T) { atEveryLevel(t, testAddScaleMatchPortable) }

func testAddScaleMatchPortable(t *testing.T) {
	k := levelKernels()
	for _, vc := range valueClasses {
		r := rng.New(109)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				src := offsetSlice(r, vc.gen, off, n)
				base := offsetSlice(r, vc.gen, (off+3)%(maxDiffOffset+1), n)
				tag := fmt.Sprintf("%s n=%d off=%d", vc.name, n, off)

				want := append([]float64(nil), base...)
				got := append([]float64(nil), base...)
				addGo(want, src)
				k.add(got, src)
				requireSameBits(t, "add "+tag, got, want)

				for _, alpha := range alphas {
					copy(want, base)
					copy(got, base)
					scaleGo(want, alpha)
					k.scale(got, alpha)
					requireSameBits(t, fmt.Sprintf("scale %s alpha=%v", tag, alpha), got, want)
				}
			}
		}
	}
}

// alphaPatterns shape the zero structure of a run of alphas: the list
// kernel must skip exactly the zeros (of either sign) wherever they
// fall, and keep every other term in place and in order.
type alphaPattern struct {
	name string
	zero func(t, count int) bool
}

var alphaPatterns = []alphaPattern{
	{"as-drawn", func(t, count int) bool { return false }},
	{"all-zero", func(t, count int) bool { return true }},
	{"leading-zeros", func(t, count int) bool { return t < count/2 }},
	{"trailing-zeros", func(t, count int) bool { return t >= count/2 }},
	{"alternating", func(t, count int) bool { return t%2 == 0 }},
	{"all-but-last", func(t, count int) bool { return t != count-1 }},
}

// TestAxpyRowsAVX2MatchesPortable: every row length with the list lengths
// at the ends of the range, and every list length with row lengths that
// take each panel of the assembly alone and together — AVX2's 32, 16,
// 8, 4 and 1, AVX-512's 64 and its masked rest of 1..32 and 33..63
// (121 is a whole panel and a 57-wide rest). Each (length, count,
// offset) is run under several zero patterns, with the operands packed
// (a row of a, rows of b back to back) and strided (a column of a, rows
// with a gap).
func TestAxpyRowsAVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testAxpyRowsMatchesPortable) }

func testAxpyRowsMatchesPortable(t *testing.T) {
	kern := levelKernels()
	const maxAstride, maxGap = 5, 3
	layouts := []struct{ astride, gap int }{{1, 0}, {maxAstride, maxGap}}
	sweep := func(vcName string, gen func(*rng.RNG) float64, r *rng.RNG, ns, counts []int, patterns []alphaPattern) {
		for _, n := range ns {
			for off := 0; off <= maxDiffOffset; off++ {
				// One draw serves every count: a case reads a prefix.
				src := offsetSlice(r, gen, off, (listMax-1)*(n+maxGap)+n)
				drawn := offsetSlice(r, gen, (off+2)%(maxDiffOffset+1), (listMax-1)*maxAstride+1)
				base := offsetSlice(r, gen, (off+1)%(maxDiffOffset+1), n)
				alpha := make([]float64, len(drawn))
				want, got := make([]float64, n), make([]float64, n)
				for _, count := range counts {
					for _, ap := range patterns {
						for _, lay := range layouts {
							copy(alpha, drawn)
							for i := 0; i < count; i++ {
								if ap.zero(i, count) { // +0 and -0 in turn
									alpha[i*lay.astride] = math.Copysign(0, float64(1-2*(i%2)))
								}
							}
							stride := n + lay.gap
							copy(want, base)
							copy(got, base)
							axpyRowsGo(want, src[:(count-1)*stride+n], stride, alpha[:(count-1)*lay.astride+1], lay.astride, count)
							kern.axpyRows(got, src[:(count-1)*stride+n], stride, alpha[:(count-1)*lay.astride+1], lay.astride, count)
							if !slices.EqualFunc(got, want, sameBits) { // a hundred thousand cases: name only the one that fails
								requireSameBits(t, fmt.Sprintf("%s n=%d count=%d off=%d %s astride=%d gap=%d",
									vcName, n, count, off, ap.name, lay.astride, lay.gap), got, want)
							}
						}
					}
				}
			}
		}
	}
	everyLen := make([]int, maxDiffLen+1)
	for i := range everyLen {
		everyLen[i] = i
	}
	everyCount := make([]int, listMax)
	for i := range everyCount {
		everyCount[i] = i + 1
	}
	for _, vc := range valueClasses {
		r := rng.New(137)
		// Where the zeros fall is the compaction's business, which
		// does not look at the row length: two patterns suffice there.
		sweep(vc.name, vc.gen, r, everyLen, []int{1, 7, listMax}, []alphaPattern{alphaPatterns[0], alphaPatterns[4]})
		sweep(vc.name, vc.gen, r, []int{1, 4, 8, 21, 61, 121}, everyCount, alphaPatterns)
	}
}

// TestAxpyRows4x8AVX2MatchesPortable: the four-row kernel against the
// portable per-row loop, every term count from 1 to past two 64-row
// tiles, alphas a row of a apart as a·b has them, with each of the four
// rows under its own zero pattern. dst starts as the kernel's contract
// has it — +0, then the sums of a first call — so the second call adds
// onto NaNs, infinities and zeros of the first.
func TestAxpyRows4x8AVX2MatchesPortable(t *testing.T) {
	atEveryLevel(t, testAxpyRows4x8MatchesPortable)
}

func testAxpyRows4x8MatchesPortable(t *testing.T) {
	kern := levelKernels()
	const maxCount, gap = 130, 3
	for _, vc := range valueClasses {
		r := rng.New(151)
		src := offsetSlice(r, vc.gen, 1, 8*maxCount)
		drawn := offsetSlice(r, vc.gen, 2, 3*(maxCount+gap)+maxCount)
		alpha := make([]float64, len(drawn))
		want, got := make([]float64, 32), make([]float64, 32)
		for count := 1; count <= maxCount; count++ {
			rs := count + gap // a's row stride
			for p := range alphaPatterns {
				copy(alpha, drawn)
				for row := 0; row < 4; row++ {
					ap := alphaPatterns[(p+row)%len(alphaPatterns)]
					for i := 0; i < count; i++ {
						if ap.zero(i, count) { // +0 and -0 in turn
							alpha[row*rs+i] = math.Copysign(0, float64(1-2*(i%2)))
						}
					}
				}
				clear(want)
				clear(got)
				half := count / 2
				for _, part := range [][2]int{{0, half}, {half, count}} {
					al := alpha[part[0]:]
					axpyRows4x8Go(want, src[8*part[0]:], al, rs, part[1]-part[0])
					if part[1] > part[0] {
						kern.axpyRows4x8(got, src[8*part[0]:], al, rs, part[1]-part[0])
					}
				}
				if !slices.EqualFunc(got, want, sameBits) {
					requireSameBits(t, fmt.Sprintf("%s count=%d rows from %s", vc.name, count, alphaPatterns[p].name), got, want)
				}
			}
		}
	}
}

// TestAccumAT8MatchesPortable: the aᵀ·b kernel on rows of 8 against its
// portable loop over a packed copy of a, every row count from 1 to 13 —
// each residue mod 4 of the four-row passes and the rows left over,
// three times — and 64 and 70, at widths k of a from 1 to the 602
// features of the first layer, with each row of a under its own zero
// pattern along it. a is read packed and as a block of k columns of
// wider rows, from odd column offsets, as MulAT's output blocks read
// it. acc starts as the contract has it — +0, then the sums of a first
// call over the first rows — so the second call adds onto NaNs,
// infinities and zeros of the first.
func TestAccumAT8MatchesPortable(t *testing.T) { atEveryLevel(t, testAccumAT8MatchesPortable) }

func testAccumAT8MatchesPortable(t *testing.T) {
	kern := levelKernels()
	const maxCount = 70
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 64, maxCount}
	for _, vc := range valueClasses {
		r := rng.New(163)
		for _, k := range []int{1, 2, 3, 5, 8, 17, 64, 602} {
			b := offsetSlice(r, vc.gen, 1, 8*maxCount)
			for _, block := range []struct{ extra, off int }{{0, 0}, {1, 1}, {6, 3}, {k | 1, k | 1}} {
				astride := k + block.extra
				drawn := offsetSlice(r, vc.gen, 2, maxCount*astride)
				a, packed := make([]float64, len(drawn)), make([]float64, maxCount*k)
				want, got := make([]float64, 8*k), make([]float64, 8*k)
				for _, count := range counts {
					for p := range alphaPatterns {
						copy(a, drawn)
						for row := 0; row < count; row++ {
							ap := alphaPatterns[(p+row)%len(alphaPatterns)]
							for c := 0; c < k; c++ {
								if ap.zero(c, k) { // +0 and -0 in turn
									a[row*astride+block.off+c] = math.Copysign(0, float64(1-2*(c%2)))
								}
							}
							copy(packed[row*k:(row+1)*k], a[row*astride+block.off:])
						}
						clear(want)
						clear(got)
						half := count / 3
						for _, part := range [][2]int{{0, half}, {half, count}} {
							rows := part[1] - part[0]
							accumAT8Go(want, packed[part[0]*k:], b[8*part[0]:], k, k, rows)
							if rows > 0 {
								kern.accumAT8(got, a[part[0]*astride+block.off:], b[8*part[0]:], k, astride, rows)
							}
						}
						if !slices.EqualFunc(got, want, sameBits) {
							requireSameBits(t, fmt.Sprintf("%s k=%d astride=%d off=%d count=%d rows from %s",
								vc.name, k, astride, block.off, count, alphaPatterns[p].name), got, want)
						}
					}
				}
			}
		}
	}
}

// TestNarrowKernelsMaskZeroAlphas: the two kernels on rows of 8, at
// every level, where their masking matters: every row of src (of b for
// accumAT8) is NaN, +Inf or -Inf throughout, and the alphas cycle
// through +0, -0, NaN, subnormals of both signs and 1. A zero alpha's
// products must come out +0 — an element that only zeros reach stays
// +0, to the bit — and every element must have the portable loop's
// bits. axpyRows4x8 runs 1 to 5 terms, accumAT8 1 to 9 rows of a, so
// that its four-row passes end with each number of rows left over.
func TestNarrowKernelsMaskZeroAlphas(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		kern := levelKernels()
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		alphaCycle := []float64{0, math.Copysign(0, -1), math.NaN(), 0x1p-1070, -0x1p-1050, 1}
		alphaAt := func(i int) float64 { return alphaCycle[i%len(alphaCycle)] }
		rowsOf := func(count int) []float64 {
			src := make([]float64, 8*count)
			for i := range src {
				src[i] = specials[(i/8)%len(specials)]
			}
			return src
		}
		for count := 1; count <= 5; count++ {
			for shift := 0; shift < len(alphaCycle); shift++ {
				const rs = 7
				alpha := make([]float64, 3*rs+count)
				for i := range alpha {
					alpha[i] = alphaAt(i + shift)
				}
				src := rowsOf(count)
				want, got := make([]float64, 32), make([]float64, 32)
				axpyRows4x8Go(want, src, alpha, rs, count)
				kern.axpyRows4x8(got, src, alpha, rs, count)
				tag := fmt.Sprintf("axpyRows4x8 count=%d shift=%d", count, shift)
				requireSameBits(t, tag, got, want)
				requireZerosOnlyGiveZero(t, tag, got, func(row int) bool {
					for i := 0; i < count; i++ {
						if alpha[row*rs+i] != 0 {
							return false
						}
					}
					return true
				})
			}
		}
		for count := 1; count <= 9; count++ {
			for _, k := range []int{1, 2, 3, 7} {
				a := make([]float64, count*k)
				for i := range a {
					a[i] = alphaAt(i)
				}
				b := rowsOf(count)
				want, got := make([]float64, 8*k), make([]float64, 8*k)
				accumAT8Go(want, a, b, k, k, count)
				kern.accumAT8(got, a, b, k, k, count)
				tag := fmt.Sprintf("accumAT8 count=%d k=%d", count, k)
				requireSameBits(t, tag, got, want)
				requireZerosOnlyGiveZero(t, tag, got, func(c int) bool {
					for row := 0; row < count; row++ {
						if a[row*k+c] != 0 {
							return false
						}
					}
					return true
				})
			}
		}
	})
}

// requireZerosOnlyGiveZero fails unless every 8-wide row r of got for
// which onlyZeros(r) holds is +0 in every element.
func requireZerosOnlyGiveZero(t *testing.T, tag string, got []float64, onlyZeros func(r int) bool) {
	t.Helper()
	for i, v := range got {
		if onlyZeros(i/8) && math.Float64bits(v) != 0 {
			t.Fatalf("%s: element %d, which only zero alphas reach, is %v (%#016x), want +0", tag, i, v, math.Float64bits(v))
		}
	}
}

// adamValues are the special operands of the Adam differential test:
// signed zeros (g = 0 among them), infinities, NaN, subnormals and
// magnitudes whose squares, quotients and square roots overflow or
// underflow — a huge second moment among them.
var adamValues = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1030, 0x1p-1022, 1e-300, 1e160, 1e300, math.MaxFloat64}

// TestAdamAVX2MatchesPortable: the Adam kernel, and Adam with its
// cut-over to the Go loop, against adamGo at every length from 0 to 37
// — the four-wide body with each tail length, ten times over — on
// weights, gradients and moments drawn half from adamValues and half
// normal, under the first step's bias corrections and the
// thousandth's, a learning rate that overflows and an ε of 0, at every
// kernel level.
func TestAdamAVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testAdamMatchesPortable) }

func testAdamMatchesPortable(t *testing.T) {
	kern := levelKernels()
	coef := func(step, lr, eps float64) AdamCoef {
		return AdamCoef{0.9, 1 - 0.9, 0.999, 1 - 0.999,
			1 - math.Pow(0.9, step), 1 - math.Pow(0.999, step), lr, eps}
	}
	coefs := []AdamCoef{coef(1, 0.01, 1e-8), coef(1000, 0.01, 1e-8), coef(3, 1e300, 1e-8), coef(2, 0.5, 0)}
	r := rng.New(181)
	draw := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			if r.Intn(2) == 0 {
				x[i] = adamValues[r.Intn(len(adamValues))]
			} else {
				x[i] = r.NormFloat64()
			}
		}
		return x
	}
	for ci := range coefs {
		c := &coefs[ci]
		for n := 0; n <= 37; n++ {
			for trial := 0; trial < 8; trial++ {
				w, g, m, v := draw(n), draw(n), draw(n), draw(n)
				want := [3][]float64{slices.Clone(w), slices.Clone(m), slices.Clone(v)}
				adamGo(want[0], g, want[1], want[2], c)
				for name, run := range map[string]func(w, g, m, v []float64, c *AdamCoef){"kernel": kern.adam, "Adam": Adam} {
					got := [3][]float64{slices.Clone(w), slices.Clone(m), slices.Clone(v)}
					run(got[0], g, got[1], got[2], c)
					for j, part := range []string{"w", "m", "v"} {
						requireSameBits(t, fmt.Sprintf("%s coef %d n=%d trial %d: %s", name, ci, n, trial, part), got[j], want[j])
					}
				}
			}
		}
	}
}

// TestMulATNeverReturnsNegativeZero: every element of aᵀ·b is a sum
// started from +0, and such a sum is never -0 (+0 + -0 is +0, and so
// is x + -x), so MulAT never returns -0 — which is what lets a
// backward pass write a weight gradient straight into Param.Grad with
// the bits of adding it to a cleared one: 0 + x has x's bits for every
// x but -0. The operands are every value class, one of small integers
// whose sums cancel exactly, with half of a zeros of either sign;
// widths 8 (accumAT8) and 5 and 24 (axpyRows); row counts that make one
// shard and several; workers 1 and 2; at every kernel level.
func TestMulATNeverReturnsNegativeZero(t *testing.T) {
	classes := append(valueClasses[:len(valueClasses):len(valueClasses)], struct {
		name string
		gen  func(r *rng.RNG) float64
	}{"cancelling", func(r *rng.RNG) float64 { return float64(r.Intn(5) - 2) }})
	atEveryLevel(t, func(t *testing.T) {
		sharded := false
		for _, vc := range classes {
			r := rng.New(191)
			for _, m := range []int{1, 7, 130, 700} {
				for _, k := range []int{3, 16} {
					for _, n := range []int{5, 8, 24} {
						sharded = sharded || mulATShards(m, k, n) > 1
						a, b := New(m, k), New(m, n)
						for i := range a.Data {
							a.Data[i] = vc.gen(r)
							if r.Intn(2) == 0 {
								a.Data[i] = math.Copysign(0, float64(1-2*r.Intn(2)))
							}
						}
						for i := range b.Data {
							b.Data[i] = vc.gen(r)
						}
						for _, workers := range []int{1, 2} {
							got := New(k, n)
							got.Fill(math.Copysign(0, -1))
							MulAT(got, a, b, workers)
							for i, x := range got.Data {
								if math.Float64bits(x) == 1<<63 {
									t.Fatalf("%s %dx%dx%d workers=%d: element %d is -0", vc.name, m, k, n, workers, i)
								}
							}
						}
					}
				}
			}
		}
		if !sharded {
			t.Fatal("no shape took MulAT's sharded path")
		}
	})
}

// zeroFills shape the zeros of a GEMM's left operand: none beyond what
// a value class draws, about half (of either sign), and all of them.
var zeroFills = []struct {
	name string
	zero func(r *rng.RNG) bool
}{
	{"dense", func(*rng.RNG) bool { return false }},
	{"half-zeros", func(r *rng.RNG) bool { return r.Intn(2) == 0 }},
	{"all-zeros", func(*rng.RNG) bool { return true }},
}

// TestNarrowRowsMatchUntiledPortable holds a·b and aᵀ·b at width 8 — the
// width that runs four rows at a time — and a·bᵀ over rows of 8 to the
// untiled portable loops,
// on hostile values in both operands: row counts of every residue mod 4
// (the groups of four and the rows left over), inner dimensions on both
// sides of the 64-row tile and of MulAT's sharding, zeros in a's rows
// and columns, workers 1, 2 and 4, at every kernel level.
func TestNarrowRowsMatchUntiledPortable(t *testing.T) {
	const n = 8
	ms := []int{1, 2, 3, 4, 5, 6, 7, 9, 66, 67, 131, 133}
	ks := []int{1, 3, 4, 5, 63, 64, 65, 130}
	atEveryLevel(t, func(t *testing.T) {
		for _, vc := range valueClasses {
			r := rng.New(157)
			for _, m := range ms {
				for _, k := range ks {
					for _, zf := range zeroFills {
						a, b, c := New(m, k), New(k, n), New(m, n)
						for i := range a.Data {
							a.Data[i] = vc.gen(r)
							if zf.zero(r) {
								a.Data[i] = math.Copysign(0, float64(1-2*r.Intn(2)))
							}
						}
						for _, x := range []*Dense{b, c} {
							for i := range x.Data {
								x.Data[i] = vc.gen(r)
							}
						}
						wantMul, wantAT, wantBT := refMul(a, b), refMulAT(a, c), refMulBT(c, b)
						for _, workers := range []int{1, 2, 4} {
							tag := fmt.Sprintf("%s %dx%dx%d %s workers=%d", vc.name, m, k, n, zf.name, workers)
							got := New(m, n)
							got.Fill(99)
							Mul(got, a, b, workers)
							requireSameBits(t, "Mul "+tag, got.Data, wantMul.Data)
							got.Fill(99)
							for w, lo := 0, 0; w < workers; w++ {
								hi := m * (w + 1) * (w + 2) / (workers * (workers + 1))
								mulRange(got, a, b, rowSet{n: a.Rows}, lo, hi)
								lo = hi
							}
							requireSameBits(t, "mulRange "+tag, got.Data, wantMul.Data)
							gotAT := New(k, n)
							gotAT.Fill(99)
							MulAT(gotAT, a, c, workers)
							requireSameBits(t, "MulAT "+tag, gotAT.Data, wantAT.Data)
							gotBT := New(m, k)
							gotBT.Fill(99)
							MulBT(gotBT, c, b, workers)
							requireSameBits(t, "MulBT "+tag, gotBT.Data, wantBT.Data)
						}
					}
				}
			}
		}
	})
}

// TestNarrowMulATMatchesUntiledPortableAtWidth holds aᵀ·b at width 8 to
// refMulAT where TestNarrowRowsMatchUntiledPortable's a is too narrow to
// reach: a 16 and 602 columns wide — the hidden layer's and the first
// layer's inputs on train_prop — so that acc has the rows a training
// step gives it, over row counts of every residue mod 4, one of them the
// step's 673, on hostile values with half of a zeros, as a ReLU leaves
// it, workers 1, 2 and 4, at every kernel level.
func TestNarrowMulATMatchesUntiledPortableAtWidth(t *testing.T) {
	const n = 8
	atEveryLevel(t, func(t *testing.T) {
		for _, vc := range valueClasses {
			r := rng.New(173)
			for _, m := range []int{66, 67, 131, 133, 673} {
				for _, k := range []int{16, 602} {
					a, c := New(m, k), New(m, n)
					for i := range a.Data {
						a.Data[i] = vc.gen(r)
						if r.Intn(2) == 0 {
							a.Data[i] = math.Copysign(0, float64(1-2*r.Intn(2)))
						}
					}
					for i := range c.Data {
						c.Data[i] = vc.gen(r)
					}
					want := refMulAT(a, c)
					for _, workers := range []int{1, 2, 4} {
						got := New(k, n)
						got.Fill(99)
						MulAT(got, a, c, workers)
						requireSameBits(t, fmt.Sprintf("MulAT %s %dx%dx%d workers=%d", vc.name, m, k, n, workers), got.Data, want.Data)
					}
				}
			}
		}
	})
}

// gatherSumRef is what GatherSum replaced, on the portable loops: the
// row cleared, one add (unweighted) or axpy per index, and one scaling
// pass unless the scale is 1.
func gatherSumRef(dst, src []float64, stride, off int, idx []int32, alpha []float64, scale float64) {
	clear(dst)
	for t, u := range idx {
		row := src[int(u)*stride+off:][:len(dst)]
		if len(alpha) == 0 {
			addGo(dst, row)
		} else {
			axpyGo(dst, row, alpha[t])
		}
	}
	if scale != 1 {
		scaleGo(dst, scale)
	}
}

// TestGatherSumMatchesPerIndexSequence runs at every level: every row
// width (each panel of the assembly alone and together, and the Go
// path below the cut-over) at every column offset, for lists that are
// empty, short, exactly one kernel call, one more than that and several
// calls long — a longer list must carry its running sum on, not start
// again — with rows drawn from a handful so that most indices repeat,
// weighted (zeros and specials among the weights: none is skipped) and
// unweighted, scaled by 1 and by 1/degree. The destination starts as
// garbage: nothing of it may reach a result.
func TestGatherSumMatchesPerIndexSequence(t *testing.T) {
	atEveryLevel(t, testGatherSumMatchesPerIndexSequence)
}

func testGatherSumMatchesPerIndexSequence(t *testing.T) {
	const rows, gap = 7, 2
	degrees := []int{0, 1, 2, listMax - 1, listMax, listMax + 1, 200}
	for _, vc := range valueClasses {
		r := rng.New(149)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				stride := off + n + gap
				src := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), rows*stride)
				drawn := offsetSlice(r, vc.gen, 3-off, degrees[len(degrees)-1])
				got := offsetSlice(r, vc.gen, off, n)
				want := make([]float64, n)
				idx := make([]int32, len(drawn))
				for i := range idx {
					idx[i] = int32(r.Intn(rows))
				}
				var offs [listMax]int
				for _, deg := range degrees {
					for _, alpha := range [][]float64{nil, drawn[:deg]} {
						for _, scale := range []float64{1, 1 / float64(deg)} {
							for i := range got {
								got[i] = math.NaN()
							}
							gatherSumRef(want, src, stride, off, idx[:deg], alpha, scale)
							GatherSum(got, src, stride, off, idx[:deg], alpha, scale)
							tag := fmt.Sprintf("%s n=%d off=%d deg=%d weighted=%t scale=%v", vc.name, n, off, deg, len(alpha) != 0, scale)
							if !slices.EqualFunc(got, want, sameBits) {
								requireSameBits(t, tag, got, want)
							}
							if deg < 2 || deg > listMax {
								continue
							}
							// The portable step at every width, in two
							// calls: the second carries the first's sum.
							a := ones[:deg]
							if len(alpha) != 0 {
								a = alpha
							}
							for i, u := range idx[:deg] {
								offs[i] = int(u)*stride + off
							}
							gatherRowsGo(got, src, offs[:deg/2], a[:deg/2], 1, true)
							gatherRowsGo(got, src, offs[deg/2:deg], a[deg/2:], scale, false)
							if !slices.EqualFunc(got, want, sameBits) {
								requireSameBits(t, "portable steps: "+tag, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestGatherSumStartsFromPositiveZero: (+0) + (-0) is +0, so a vertex
// whose only neighbor holds -0 aggregates to +0 — which a kernel that
// loaded its first row instead of adding it to zero would get wrong.
func TestGatherSumStartsFromPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 3, 4, 8, 16, 32, 61} {
		src := make([]float64, n)
		got := make([]float64, n)
		for i := range src {
			src[i], got[i] = negZero, -7
		}
		for _, alpha := range [][]float64{nil, {1}} {
			GatherSum(got, src, n, 0, []int32{0}, alpha, 1)
			requireSameBits(t, fmt.Sprintf("n=%d weighted=%t", n, alpha != nil), got, make([]float64, n))
		}
	}
}

func TestReluAVX2MatchesPortable(t *testing.T) { atEveryLevel(t, testReluMatchesPortable) }

func testReluMatchesPortable(t *testing.T) {
	k := levelKernels()
	for _, vc := range valueClasses {
		r := rng.New(139)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				z := offsetSlice(r, vc.gen, off, n)
				grad := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), n)
				tag := fmt.Sprintf("%s n=%d off=%d", vc.name, n, off)
				want, got := make([]float64, n), make([]float64, n)
				for i := range want {
					want[i], got[i] = 99, 99
				}
				reluGo(want, z)
				k.relu(got, z)
				requireSameBits(t, "relu "+tag, got, want)

				reluGateGo(want, z, grad)
				k.reluGate(got, z, grad)
				requireSameBits(t, "reluGate "+tag, got, want)

				// In place: the forward pass of serving rectifies a
				// row where it lies.
				copy(want, z)
				copy(got, z)
				reluGo(want, want)
				k.relu(got, got)
				requireSameBits(t, "relu in place "+tag, got, want)
			}
		}
	}
}

// TestReluSemantics pins what "positive" means, on both sides of the
// cut-over length and whatever the dispatch picks: the scalar
// if x > 0 { x } else { 0 } of the layer this replaced. Everything
// that is not greater than zero — negatives, both zeros, NaN, -Inf —
// becomes +0, sign bit clear; the gate passes the gradient's own bits,
// a -0 or a NaN included, and nothing else.
func TestReluSemantics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	z := []float64{1.5, -1.5, 0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	grad := []float64{negZero, 7, 7, 7, 7, math.NaN(), 7, -3, -3}
	wantRelu := []float64{1.5, 0, 0, 0, 0, math.Inf(1), 0, math.SmallestNonzeroFloat64, 0}
	wantGate := []float64{negZero, 0, 0, 0, 0, math.NaN(), 0, -3, 0}
	for _, reps := range []int{1, 5} { // 9 and 45 elements: tail only, and every loop
		var zz, gg, wr, wg []float64
		for i := 0; i < reps; i++ {
			zz, gg = append(zz, z...), append(gg, grad...)
			wr, wg = append(wr, wantRelu...), append(wg, wantGate...)
		}
		for lo := 0; lo < len(zz); lo += 7 { // short slices take the Go loop
			got := make([]float64, len(zz)-lo)
			Relu(got, zz[lo:])
			requireSameBits(t, fmt.Sprintf("Relu [%d:%d]", lo, len(zz)), got, wr[lo:])
			ReluGate(got, zz[lo:], gg[lo:])
			requireSameBits(t, fmt.Sprintf("ReluGate [%d:%d]", lo, len(zz)), got, wg[lo:])
		}
	}
}

// TestDispatchMatchesPortable runs at every level: whatever axpy, dot,
// dot4, add and scale dispatch to, across the cut-over length, they
// return the portable loops' bits.
func TestDispatchMatchesPortable(t *testing.T) { atEveryLevel(t, testDispatchMatchesPortable) }

func testDispatchMatchesPortable(t *testing.T) {
	r := rng.New(113)
	gen := valueClasses[0].gen
	for n := 0; n <= 48; n++ {
		x := offsetSlice(r, gen, 1, n)
		y := offsetSlice(r, gen, 2, 4*n)
		base := offsetSlice(r, gen, 3, n)
		tag := fmt.Sprintf("n=%d", n)

		want := append([]float64(nil), base...)
		got := append([]float64(nil), base...)
		axpyGo(want, x, 0.37)
		Axpy(got, x, 0.37)
		requireSameBits(t, "axpy "+tag, got, want)

		addGo(want, x)
		AddTo(got, x)
		requireSameBits(t, "add "+tag, got, want)

		scaleGo(want, -1.5)
		Scal(got, -1.5)
		requireSameBits(t, "scale "+tag, got, want)

		if g, w := Dot(x, y), dotGo(x, y[:n]); !sameBits(g, w) {
			t.Fatalf("dot %s: %v != %v", tag, g, w)
		}
		var w4, g4 [4]float64
		for j := range w4 {
			w4[j] = dotGo(x, y[j*n:(j+1)*n])
		}
		dot4(g4[:], x, y, n)
		requireSameBits(t, "dot4 "+tag, g4[:], w4[:])

		// Four rows of y into base, the second skipped.
		al := []float64{0.37, math.Copysign(0, -1), -1.5, 1}
		copy(want, base)
		copy(got, base)
		for j, av := range al {
			if av != 0 {
				axpyGo(want, y[j*n:(j+1)*n], av)
			}
		}
		axpyRows(got, y, n, al, 1, len(al))
		requireSameBits(t, "axpyRows "+tag, got, want)

		reluGo(want, x)
		Relu(got, x)
		requireSameBits(t, "relu "+tag, got, want)
		reluGateGo(want, x, base)
		ReluGate(got, x, base)
		requireSameBits(t, "reluGate "+tag, got, want)
	}
}

func mustPanic(t *testing.T, tag string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", tag)
		}
	}()
	fn()
}

// TestPrimitiveLengthContract: the assembly has no bounds checks, so
// the entry points must reject a short second operand — at every
// length, on both sides of the cut-over — and, where the assembly
// would run, before a single element is written.
func TestPrimitiveLengthContract(t *testing.T) {
	for _, n := range []int{1, simdMinLen - 1, simdMinLen, simdMinLen + 1, 17, 64, 130} {
		long := make([]float64, n)
		short := make([]float64, n-1, n+8) // spare capacity must not rescue it
		for i := range long {
			long[i] = 1
		}
		for i := range short {
			short[i] = 1
		}
		mustPanic(t, fmt.Sprintf("Axpy n=%d", n), func() { Axpy(long, short, 2) })
		mustPanic(t, fmt.Sprintf("AddTo n=%d", n), func() { AddTo(long, short) })
		mustPanic(t, fmt.Sprintf("Dot n=%d", n), func() { Dot(long, short) })
		mustPanic(t, fmt.Sprintf("dot4 short rows n=%d", n), func() {
			dot4(make([]float64, 4), long, make([]float64, 4*n-1, 4*n+8), n)
		})
		mustPanic(t, fmt.Sprintf("dot4 short out n=%d", n), func() {
			dot4(make([]float64, 3, 8), long, make([]float64, 4*n), n)
		})
		mustPanic(t, fmt.Sprintf("Relu n=%d", n), func() { Relu(long, short) })
		mustPanic(t, fmt.Sprintf("Exp n=%d", n), func() { Exp(long, short) })
		mustPanic(t, fmt.Sprintf("Log1p n=%d", n), func() { Log1p(long, short) })
		mustPanic(t, fmt.Sprintf("ReluGate short z n=%d", n), func() { ReluGate(long, short, long) })
		mustPanic(t, fmt.Sprintf("ReluGate short grad n=%d", n), func() { ReluGate(long, long, short) })
		c := &AdamCoef{0.9, 0.1, 0.999, 0.001, 0.1, 0.001, 0.01, 1e-8}
		mustPanic(t, fmt.Sprintf("Adam short g n=%d", n), func() { Adam(long, short, long, long, c) })
		mustPanic(t, fmt.Sprintf("Adam short m n=%d", n), func() { Adam(long, long, short, long, c) })
		mustPanic(t, fmt.Sprintf("Adam short v n=%d", n), func() { Adam(long, long, long, short, c) })
		three := []float64{1, 1, 1}
		mustPanic(t, fmt.Sprintf("axpyRows short rows n=%d", n), func() {
			axpyRows(long, make([]float64, 3*n-1, 3*n+8), n, three, 1, 3)
		})
		mustPanic(t, fmt.Sprintf("axpyRows short alphas n=%d", n), func() {
			axpyRows(long, make([]float64, 3*n), n, make([]float64, 4, 8), 2, 3)
		})
		mustPanic(t, fmt.Sprintf("axpyRows long list n=%d", n), func() {
			axpyRows(long, make([]float64, n), 0, make([]float64, listMax+1), 1, listMax+1)
		})
		// axpyRows4x8 over n terms: 32 outputs, n rows of 8, alphas a
		// row of n + 2 apart.
		mustPanic(t, fmt.Sprintf("axpyRows4x8 short dst n=%d", n), func() {
			axpyRows4x8(make([]float64, 31, 40), make([]float64, 8*n), make([]float64, 4*n+6), n+2, n)
		})
		mustPanic(t, fmt.Sprintf("axpyRows4x8 short rows n=%d", n), func() {
			axpyRows4x8(make([]float64, 32), make([]float64, 8*n-1, 8*n+8), make([]float64, 4*n+6), n+2, n)
		})
		mustPanic(t, fmt.Sprintf("axpyRows4x8 short alphas n=%d", n), func() {
			axpyRows4x8(make([]float64, 32), make([]float64, 8*n), make([]float64, 4*n+5, 4*n+16), n+2, n)
		})
		// accumAT8 over n rows of a, 3 wide, into 3 rows of 8: each
		// operand one element short, packed and 5 apart, and rows of a
		// that overlap.
		mustPanic(t, fmt.Sprintf("accumAT8 short acc n=%d", n), func() {
			accumAT8(make([]float64, 23, 32), make([]float64, 3*n), make([]float64, 8*n), 3, 3, n)
		})
		mustPanic(t, fmt.Sprintf("accumAT8 short a n=%d", n), func() {
			accumAT8(make([]float64, 24), make([]float64, 3*n-1, 3*n+8), make([]float64, 8*n), 3, 3, n)
		})
		mustPanic(t, fmt.Sprintf("accumAT8 short strided a n=%d", n), func() {
			accumAT8(make([]float64, 24), make([]float64, 5*n-3, 5*n+8), make([]float64, 8*n), 3, 5, n)
		})
		mustPanic(t, fmt.Sprintf("accumAT8 overlapping a n=%d", n), func() {
			accumAT8(make([]float64, 24), make([]float64, 3*n), make([]float64, 8*n), 3, 2, n)
		})
		mustPanic(t, fmt.Sprintf("accumAT8 short b n=%d", n), func() {
			accumAT8(make([]float64, 24), make([]float64, 3*n), make([]float64, 8*n-1, 8*n+8), 3, 3, n)
		})
		// dot16 over two rows of n into rows of dst 17 apart: each
		// operand one element short. The slicing stops it on every host.
		mustPanic(t, fmt.Sprintf("dot16 short rows n=%d", n), func() {
			dot16(make([]float64, 33), 17, make([]float64, 2*n-1, 2*n+8), n, 2, make([]float64, 16*n))
		})
		mustPanic(t, fmt.Sprintf("dot16 short packed n=%d", n), func() {
			dot16(make([]float64, 33), 17, make([]float64, 2*n), n, 2, make([]float64, 16*n-1, 16*n+8))
		})
		mustPanic(t, fmt.Sprintf("dot16 short dst n=%d", n), func() {
			dot16(make([]float64, 32, 40), 17, make([]float64, 2*n), n, 2, make([]float64, 16*n))
		})
		// GatherSum: three rows of n, two columns to the left of them.
		table := make([]float64, 3*(n+2))
		for tag, fn := range map[string]func(){
			"negative index":      func() { GatherSum(long, table, n+2, 2, []int32{0, -1}, nil, 1) },
			"index past the end":  func() { GatherSum(long, table, n+2, 2, []int32{2, 3}, nil, 1) },
			"row past the end":    func() { GatherSum(long, table[:len(table)-1:len(table)], n+2, 2, []int32{2}, nil, 1) },
			"past the end, late":  func() { GatherSum(long, table, n+2, 2, append(make([]int32, listMax), 3), nil, 1) },
			"offset past the row": func() { GatherSum(long, table, n+2, 3, []int32{2}, nil, 1) },
			"overflowing product": func() { GatherSum(long, table, math.MaxInt64/2+1, 0, []int32{2}, nil, 1) },
			"negative stride":     func() { GatherSum(long, table, -1, 0, []int32{0}, nil, 1) },
			"negative offset":     func() { GatherSum(long, table, n+2, -1, []int32{1}, nil, 1) },
			"short alphas":        func() { GatherSum(long, table, n+2, 2, []int32{0, 1}, three[:1], 1) },
			"long alphas":         func() { GatherSum(long, table, n+2, 2, []int32{0, 1}, three, 1) },
		} {
			mustPanic(t, fmt.Sprintf("GatherSum %s n=%d", tag, n), fn)
		}
		if n >= simdMinLen {
			for i, v := range long {
				if v != 1 {
					t.Fatalf("n=%d: destination element %d written before the length check", n, i)
				}
			}
		}

		// A longer second operand is legal: only len(dst) (len(x))
		// elements of it take part.
		extra := make([]float64, n+5)
		for i := range extra {
			extra[i] = 3
		}
		dst := make([]float64, n)
		Axpy(dst, extra, 2)
		AddTo(dst, extra)
		for i, v := range dst {
			if v != 9 {
				t.Fatalf("n=%d: element %d = %v after axpy+add with a longer source, want 9", n, i, v)
			}
		}
		for i := range long {
			long[i] = 1 // a Go loop below the cut-over may have written before it panicked
		}
		if got := Dot(long, extra); got != float64(3*n) {
			t.Errorf("n=%d: dot with a longer y = %v, want %v", n, got, 3*n)
		}
	}
}

func TestPrimitivesOnEmptySlices(t *testing.T) {
	var empty []float64
	out1 := []float64{9}
	Axpy(empty, empty, 2)
	AddTo(empty, nil)
	Scal(nil, 2)
	if got := Dot(nil, empty); got != 0 {
		t.Errorf("dot of empty slices = %v", got)
	}
	Relu(nil, empty)
	ReluGate(empty, nil, nil)
	Adam(nil, empty, nil, empty, &AdamCoef{})
	axpyRows(nil, nil, 0, []float64{1}, 1, 1) // no columns
	axpyRows(out1, nil, 1, nil, 1, 0)         // no terms
	requireSameBits(t, "axpyRows with no terms", out1, []float64{9})
	out32 := make([]float64, 32)
	out32[5] = 9
	axpyRows4x8(out32, nil, nil, 0, 0) // no terms, whatever the path
	requireSameBits(t, "axpyRows4x8 with no terms", out32[5:6], []float64{9})
	accumAT8(out32, nil, nil, 4, 4, 0) // no rows
	accumAT8(out32, nil, nil, 0, 0, 4) // no columns
	requireSameBits(t, "accumAT8 with no terms", out32[5:6], []float64{9})
	GatherSum(nil, nil, 0, 0, []int32{0, 0}, nil, 2) // no columns
	GatherSum(out1, nil, 1, 0, nil, nil, 2)          // no terms: the empty sum, scaled
	requireSameBits(t, "GatherSum with no terms", out1, []float64{0})
	out1[0] = 9
	out := []float64{9, 9, 9, 9}
	dot4(out, nil, nil, 0)
	requireSameBits(t, "dot4 of empty rows", out, []float64{0, 0, 0, 0})
	out16 := make([]float64, 16)
	dot16(out16, 16, nil, 0, 0, nil) // no rows: nothing written, whatever the path
	requireSameBits(t, "dot16 with no rows", out16, make([]float64, 16))
	if useAVX512 {
		out16[3] = 9
		dot16(out16, 16, nil, 0, 1, nil) // no columns: the empty dot, +0
		requireSameBits(t, "dot16 of empty rows", out16, make([]float64, 16))
		axpyRowsSIMD(nil, nil, 0, []float64{1}, 1, 1, true)
		axpyRowsSIMD(out1, nil, 1, nil, 1, 0, true)
		requireSameBits(t, "axpyRowsSIMD zmm with no terms", out1, []float64{9})
	}
	if useAVX2 {
		reluAVX2(nil, nil)
		reluGateAVX2(nil, nil, nil)
		axpyRowsSIMD(nil, nil, 0, []float64{1}, 1, 1, false)
		axpyRowsSIMD(out1, nil, 1, nil, 1, 0, false)
		requireSameBits(t, "axpyRowsSIMD with no terms", out1, []float64{9})
		axpyAVX2(nil, nil, 2)
		addAVX2(nil, nil)
		scaleAVX2(nil, 2)
		if got := dotAVX2(nil, nil); got != 0 {
			t.Errorf("dotAVX2 of empty slices = %v", got)
		}
		dot4AVX2(out, nil, nil, 0)
		requireSameBits(t, "dot4AVX2 of empty rows", out, []float64{0, 0, 0, 0})
	}
}

// Untiled GEMM references over the portable primitives: the loops as
// they were before tiling, one output row (or element) at a time.

func refMul(a, b *Dense) *Dense {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			if av != 0 {
				axpyGo(dst.Row(i), b.Row(k), av)
			}
		}
	}
	return dst
}

// refMulAT follows MulAT's contract: mulATShards row shards, each
// accumulated from zero in row order, summed in shard order.
func refMulAT(a, b *Dense) *Dense {
	k, n := a.Cols, b.Cols
	accum := func(acc *Dense, lo, hi int) {
		for r := lo; r < hi; r++ {
			for c, av := range a.Row(r) {
				if av != 0 {
					axpyGo(acc.Row(c), b.Row(r), av)
				}
			}
		}
	}
	dst := New(k, n)
	shards := mulATShards(a.Rows, k, n)
	if shards <= 1 {
		accum(dst, 0, a.Rows)
		return dst
	}
	partials := make([]*Dense, shards)
	for s := range partials {
		partials[s] = New(k, n)
		accum(partials[s], s*a.Rows/shards, (s+1)*a.Rows/shards)
	}
	for i := range dst.Data {
		v := 0.0
		for _, p := range partials {
			v += p.Data[i]
		}
		dst.Data[i] = v
	}
	return dst
}

func refMulBT(a, b *Dense) *Dense {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, j, dotGo(a.Row(i), b.Row(j)))
		}
	}
	return dst
}

// sparseMat is randMat with about half the entries exactly zero, like
// a ReLU output.
func sparseMat(r *rng.RNG, rows, cols int) *Dense {
	m := randMat(r, rows, cols)
	for i := range m.Data {
		if r.Intn(2) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// tiledCases are (m, k, n) with row counts off every tile boundary and
// on both sides of MulAT's sharding, inner dimensions on both sides of
// simdMinLen and of listMax, and the widths the training workloads use.
var tiledCases = []struct{ m, k, n int }{
	{1, 1, 1},
	{5, 1, 17},
	{7, 50, 128},
	{13, 256, 33},
	{9, 602, 8},
	{10, 602, 8},
	{11, 16, 8},
	{700, 16, 8},
	{67, 19, 23},
	{131, 50, 37},
	{203, 256, 121},
	{6, 602, 19},
	{11, 50, 3},
	{140, 256, 128},
	{150, 602, 1},
}

func TestTiledGEMMMatchesUntiledPortable(t *testing.T) {
	atEveryLevel(t, testTiledGEMMMatchesUntiledPortable)
}

func testTiledGEMMMatchesUntiledPortable(t *testing.T) {
	for _, tc := range tiledCases {
		for _, fill := range []struct {
			name string
			gen  func(*rng.RNG, int, int) *Dense
		}{{"dense", randMat}, {"half-zeros", sparseMat}, {"all-zeros", func(_ *rng.RNG, rows, cols int) *Dense { return New(rows, cols) }}} {
			r := rng.New(uint64(127 + tc.m + tc.k + tc.n))
			a := fill.gen(r, tc.m, tc.k)
			b := fill.gen(r, tc.k, tc.n)  // Mul: a(m x k) * b(k x n)
			bt := fill.gen(r, tc.n, tc.k) // MulBT: a(m x k) * bt(n x k)ᵀ
			c := fill.gen(r, tc.m, tc.n)  // MulAT: a(m x k)ᵀ * c(m x n)
			wantMul, wantBT, wantAT := refMul(a, b), refMulBT(a, bt), refMulAT(a, c)
			for _, workers := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%dx%dx%d %s workers=%d", tc.m, tc.k, tc.n, fill.name, workers)
				got := New(tc.m, tc.n)
				got.Fill(99)
				Mul(got, a, b, workers)
				requireSameBits(t, "Mul "+tag, got.Data, wantMul.Data)

				// The same product in `workers` uneven row ranges.
				got.Fill(99)
				for w, lo := 0, 0; w < workers; w++ {
					hi := tc.m * (w + 1) * (w + 2) / (workers * (workers + 1))
					mulRange(got, a, b, rowSet{n: a.Rows}, lo, hi)
					lo = hi
				}
				requireSameBits(t, "mulRange "+tag, got.Data, wantMul.Data)

				got.Fill(99)
				MulBT(got, a, bt, workers)
				requireSameBits(t, "MulBT "+tag, got.Data, wantBT.Data)

				gotAT := New(tc.k, tc.n)
				gotAT.Fill(99)
				MulAT(gotAT, a, c, workers)
				requireSameBits(t, "MulAT "+tag, gotAT.Data, wantAT.Data)
			}
		}
	}
}

// TestMulATReusesScratch: after a warm-up call the k x n partial that
// every shard after the first is summed in comes from the pool, so a
// sharded MulAT allocates (almost) nothing, at one worker and at two,
// where each of two blocks of 128 output rows takes its own rows of
// it; a fresh partial per call would show.
func TestMulATReusesScratch(t *testing.T) {
	r := rng.New(131)
	a := randMat(r, 256, 256)
	b := randMat(r, 256, 32)
	if mulATShards(a.Rows, a.Cols, b.Cols) < 2 {
		t.Fatal("shape does not shard; the test would not reach the scratch")
	}
	for _, workers := range []int{1, 2} {
		dst := New(256, 32)
		MulAT(dst, a, b, workers)
		want := dst.Clone()
		avg := testing.AllocsPerRun(20, func() { MulAT(dst, a, b, workers) })
		// A collection between runs may empty the pool once; the closures
		// handed to perf.Parallel account for the rest.
		if avg > 4 {
			t.Errorf("MulAT at %d workers allocates %.1f objects per call with warm scratch", workers, avg)
		}
		requireSameBits(t, fmt.Sprintf("MulAT at %d workers on recycled scratch", workers), dst.Data, want.Data)
	}
}

// TestMulBTReusesItsPackBuffer: after a warm-up call the packed copy of b
// comes from the pool, so MulBT allocates (almost) nothing at any level;
// the packing that first allocated it 16*k floats per call would show.
func TestMulBTReusesItsPackBuffer(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		r := rng.New(167)
		a, b := randMat(r, 40, 64), randMat(r, 48, 64)
		dst := New(40, 48)
		MulBT(dst, a, b, 1)
		want := dst.Clone()
		if avg := testing.AllocsPerRun(20, func() { MulBT(dst, a, b, 1) }); avg > 2 {
			t.Errorf("MulBT allocates %.1f objects per call with a pooled pack buffer", avg)
		}
		requireSameBits(t, "MulBT on a recycled pack buffer", dst.Data, want.Data)
	})
}

func benchVec(b *testing.B, fn func(x, y []float64)) {
	for _, n := range []int{8, 128, 256, 602} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = r.NormFloat64(), r.NormFloat64()
			}
			b.ReportAllocs()
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(x, y)
			}
		})
	}
}

var dotSink float64

func BenchmarkAxpy(b *testing.B) {
	// alpha = 1e-9 keeps dst bounded over any b.N.
	benchVec(b, func(x, y []float64) { Axpy(x, y, 1e-9) })
}

func BenchmarkDot(b *testing.B) {
	benchVec(b, func(x, y []float64) { dotSink += Dot(x, y) })
}
