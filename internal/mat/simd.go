package mat

import "math"

// Vector primitives under every GEMM form, the propagation loops, the
// rectifier and the top-K scans. They run at one of three levels that
// return the same bits: the portable Go loops (the only path off amd64,
// and the reference the differential tests compare against), AVX2
// routines in simd_amd64.s, and on CPUs with AVX-512 the AVX2 routines
// but for two AVX-512 kernels — the list walk under axpyRows and
// GatherSum, and the sixteen-row dot under MulBT (dot16). The assembly
// keeps the Go loop's arithmetic exactly — a separate multiply and add
// per element, never a fused one, for dot the same four accumulator
// lanes reduced as ((s0+s1)+s2)+s3 before a scalar tail, and for
// axpyRows the same terms in the same order, zeros skipped
// (axpyRows4x8 and accumAT8 mask them to +0 instead, which on their
// +0-started sums is the same thing) — so which one runs never shows
// in a result: a wider register only changes which elements share an
// instruction, the operations each element sees and their order stay
// put, and dot16's packing keeps each inner product's four lanes. The
// choice is made from what the code can observe: the CPU's feature
// bits, read once at start-up (useAVX2, useAVX512), and the vector
// length.
//
// axpyRows and GatherSum are the two primitives that are more than a
// loop over elements: a row plus, or set to, a weighted sum of other
// rows — dst += Σ alpha[t]·row[t], the inner loop of a·b and of aᵀ·b,
// and dst = scale·Σ alpha[t]·row[idx[t]], a vertex's neighbor
// aggregation. Both hand the assembly a list of (alpha, row offset)
// terms — axpyRows' is its non-zero terms, compacted in the assembly's
// frame; GatherSum's is built here from the indices, every one checked
// — and one loop walks it: dst a column panel at a time, each panel
// loaded (or started from +0) once, updated by every term on the list,
// scaled and stored once. None of this can change an element's sum:
// the list holds the terms in the order the portable loop visits them
// in, and a panel only decides which elements share a register — every
// element still has its own lane, its own running sum, and receives
// product-then-add for term after term exactly as a chain of Axpy
// calls would give it, then the one multiplication a Scal would.
//
// The assembly checks no bounds. Every entry point below re-slices the
// other operands to the exact length the kernel will touch, with the
// operand's own length as the capacity bound (s[:n:len(s)]), before
// the call: a mismatched pair panics there, as an index into the short
// slice used to, and never reaches the assembly. GatherSum, whose rows
// are wherever its indices say, checks every index against the table's
// length first.

// simdMinLen is the shortest vector handed to the assembly: one full
// YMM register. Measured on the development host (Xeon, Go 1.24), the
// call — an ABI0 frame and a VZEROUPPER — is paid back from there up
// (axpy 2.3 ns against the Go loop's 3.1 at n = 4, 2.7 against 4.7 at
// n = 8, so a hidden-8 layer's rows gain too) and is a wash below,
// where the entry points run a Go loop, inlined into the caller when
// the entry point is small enough for the compiler (AddTo and Scal
// are).
const simdMinLen = 4

// Axpy computes dst += alpha * src elementwise over len(dst) elements.
// It panics if src is shorter than dst.
func Axpy(dst, src []float64, alpha float64) {
	if len(dst) < simdMinLen {
		for i := range dst {
			dst[i] += alpha * src[i]
		}
		return
	}
	axpyFor(len(dst))(dst, src[:len(dst):len(src)], alpha)
}

// AddTo computes dst += src elementwise over len(dst) elements. It
// panics if src is shorter than dst.
func AddTo(dst, src []float64) {
	if len(dst) >= simdMinLen {
		addLong(dst, src)
	} else {
		for i := range dst {
			dst[i] += src[i]
		}
	}
}

// addLong and scalLong stay out of line so that AddTo and Scal fit the
// compiler's inlining budget and a short row costs its caller no call.
//
//go:noinline
func addLong(dst, src []float64) {
	src = src[:len(dst):len(src)]
	if useAVX2 {
		addAVX2(dst, src)
		return
	}
	addGo(dst, src)
}

// Scal computes dst *= alpha elementwise.
func Scal(dst []float64, alpha float64) {
	if len(dst) >= simdMinLen {
		scalLong(dst, alpha)
	} else {
		for i := range dst {
			dst[i] *= alpha
		}
	}
}

//go:noinline
func scalLong(dst []float64, alpha float64) {
	if useAVX2 {
		scaleAVX2(dst, alpha)
		return
	}
	scaleGo(dst, alpha)
}

// Relu sets dst[i] to src[i] where src[i] > 0 and to +0 everywhere
// else — for a negative, a zero of either sign and a NaN — over
// len(dst) elements: the one rectifier of training and serving. dst
// may be src. It panics if src is shorter than dst.
func Relu(dst, src []float64) {
	src = src[:len(dst):len(src)]
	if useAVX2 && len(dst) >= simdMinLen {
		reluAVX2(dst, src)
		return
	}
	reluGo(dst, src)
}

// ReluGate sets dst[i] to grad[i] where z[i] > 0 and to +0 everywhere
// else: the rectifier's backward pass, with Relu's idea of positive.
// dst may be z or grad. It panics if z or grad is shorter than dst.
func ReluGate(dst, z, grad []float64) {
	z, grad = z[:len(dst):len(z)], grad[:len(dst):len(grad)]
	if useAVX2 && len(dst) >= simdMinLen {
		reluGateAVX2(dst, z, grad)
		return
	}
	reluGateGo(dst, z, grad)
}

// Dot returns the inner product of x and the first len(x) elements of
// y. It panics if y is shorter than x.
func Dot(x, y []float64) float64 { return dot(x, y) }

func dot(x, y []float64) float64 {
	return dotFor(len(x))(x, y[:len(x):len(y)])
}

// dot4 sets out[j] = Dot(x, y[j*stride:]) for j = 0..3: four inner
// products against consecutive rows of a row-major matrix for one
// pass over x. Each result has exactly Dot's bits. It panics if y
// does not hold four rows or out four results.
func dot4(out, x, y []float64, stride int) {
	out = out[:4:len(out)]
	y = y[: 3*stride+len(x) : len(y)]
	if useAVX2 && len(x) >= simdMinLen {
		dot4AVX2(out, x, y, stride)
		return
	}
	for j := range out {
		out[j] = dotGo(x, y[j*stride:j*stride+len(x)])
	}
}

// dot16 sets dst[r*dstride+j] = Dot(a[r*k:r*k+k], row j of b) for j <
// 16 and r < rows: sixteen inner products per row of a, rows of a k
// apart and rows of dst dstride apart, against sixteen rows of b that
// packBT16 packed. Each result has exactly Dot's bits. Only the
// AVX-512 level runs it; it panics if an operand is too short.
func dot16(dst []float64, dstride int, a []float64, k, rows int, packed []float64) {
	if rows <= 0 {
		return
	}
	if dstride < 16 { // rows of 16 results would overlap, or run backwards past dst
		panic("mat: dot16 arguments out of range")
	}
	dst = dst[: (rows-1)*dstride+16 : len(dst)]
	a = a[: rows*k : len(a)]
	packed = packed[: 16*k : len(packed)]
	dot16AVX512(dst, dstride, a, k, rows, packed)
}

// packBT16 lays out the first 16*groups rows of b (rows of k elements)
// for dot16, sixteen rows to a group of 16*k elements: for each 4-element
// chunk of the first k&^3 columns, rows 0..15's chunks in row order —
// so that rows 2p and 2p+1 share an 8-element register — then for each
// column left, its sixteen elements in row order.
func packBT16(dst, b []float64, k, groups int) {
	k4 := k &^ 3
	for g := 0; g < groups; g++ {
		rows := b[g*16*k : (g+1)*16*k]
		out := dst[g*16*k : (g+1)*16*k]
		o := 0
		for c := 0; c < k4; c += 4 {
			for r := 0; r < 16; r++ {
				x := rows[r*k+c : r*k+c+4]
				out[o], out[o+1], out[o+2], out[o+3] = x[0], x[1], x[2], x[3]
				o += 4
			}
		}
		for c := k4; c < k; c++ {
			for r := 0; r < 16; r++ {
				out[o] = rows[r*k+c]
				o++
			}
		}
	}
}

// axpyFor returns the axpy kernel for vectors of n elements. Kernels
// index src by dst's length: they are for callers that cut both slices
// to n elements themselves.
func axpyFor(n int) func(dst, src []float64, alpha float64) {
	if useAVX2 && n >= simdMinLen {
		return axpyAVX2
	}
	return axpyGo
}

// listMax is the most terms one axpyRows call takes: the length of the
// list the assembly compacts the non-zero terms into, in its frame.
const listMax = 64

// axpyRows computes, for t = 0..count-1 in that order,
//
//	dst += alpha[t*astride] * src[t*stride : t*stride+len(dst)]
//
// skipping every term whose alpha is zero (of either sign): the inner
// loop of a·b (dst a row of the product, alpha a run of a's row, src
// the matching rows of b) and of aᵀ·b on rows other than 8 wide (dst a
// row of the accumulator, alpha a run of a's column, src the matching
// rows of b). The result is that of one Axpy per non-zero alpha, to
// the bit. The assembly gathers the non-zero terms first and then
// keeps each stretch of dst in registers while it takes all of them,
// where Axpy loads and stores dst once per term. It panics if count
// exceeds listMax or if src or alpha is too short for count terms.
func axpyRows(dst, src []float64, stride int, alpha []float64, astride, count int) {
	n := len(dst)
	if count <= 0 || n == 0 {
		return
	}
	if count > listMax {
		panic("mat: axpyRows takes at most listMax terms")
	}
	src = src[: (count-1)*stride+n : len(src)]
	alpha = alpha[: (count-1)*astride+1 : len(alpha)]
	if useAVX2 && n >= simdMinLen {
		axpyRowsSIMD(dst, src, stride, alpha, astride, count, useAVX512)
		return
	}
	axpyRowsGo(dst, src, stride, alpha, astride, count)
}

// axpyRowsGo is the portable axpyRows: one axpyGo per non-zero alpha.
func axpyRowsGo(dst, src []float64, stride int, alpha []float64, astride, count int) {
	n := len(dst)
	for t := 0; t < count; t++ {
		if av := alpha[t*astride]; av != 0 {
			axpyGo(dst, src[t*stride:t*stride+n], av)
		}
	}
}

// axpyRows4x8 is axpyRows on four 8-wide rows of dst at once, each with
// its own run of alphas, rs apart, against the same count rows of src,
// packed 8 apart: for r = 0..3 and t = 0..count-1 in that order,
//
//	dst[8r : 8r+8] += alpha[r*rs+t] * src[8t : 8t+8]
//
// skipping every zero alpha — four rows of a·b, rs being a's row
// stride. The assembly shares each load of a src row among the four
// and masks a zero alpha's products to +0 instead of branching, which
// gives the bits of skipping only where no element of dst is -0: every
// element must be a sum that started from +0, as every GEMM accumulator
// here is. It panics if dst holds fewer than four rows or src or alpha
// is too short for count terms.
func axpyRows4x8(dst, src, alpha []float64, rs, count int) {
	if count <= 0 {
		return
	}
	dst = dst[:32:len(dst)]
	src = src[: 8*count : len(src)]
	alpha = alpha[: 3*rs+count : len(alpha)]
	if useAVX2 {
		axpyRows4x8AVX2(dst, src, alpha, rs, count)
		return
	}
	axpyRows4x8Go(dst, src, alpha, rs, count)
}

// axpyRows4x8Go is the portable axpyRows4x8: axpyRowsGo on each row.
func axpyRows4x8Go(dst, src, alpha []float64, rs, count int) {
	for r := 0; r < 4; r++ {
		axpyRowsGo(dst[8*r:8*r+8], src, 8, alpha[r*rs:], 1, count)
	}
}

// accumAT8 adds aᵀ·b into the k x 8 accumulator acc, for count rows of
// a (k wide, packed) and of b (8 wide): for t = 0..count-1 in that
// order and every c < k,
//
//	acc[8c : 8c+8] += a[t*k+c] * b[8t : 8t+8]
//
// skipping every zero of a — a weight gradient on rows of 8, with a
// read along its rows, the order it lies in memory. The assembly, AVX2
// at both amd64 levels, holds four rows of b in registers and walks
// acc once for the four rows of a beside them, each acc row taking its
// four terms in row order; the rows left over go one at a time. It
// masks a zero's products to +0, as axpyRows4x8 does and with the same
// contract: every element of acc must be a sum that started from +0.
// It panics if acc holds fewer than k rows or a or b fewer than count.
func accumAT8(acc, a, b []float64, k, count int) {
	if count <= 0 || k <= 0 {
		return
	}
	acc = acc[: 8*k : len(acc)]
	a = a[: count*k : len(a)]
	b = b[: 8*count : len(b)]
	if useAVX2 {
		accumAT8AVX2(acc, a, b, k, count)
		return
	}
	accumAT8Go(acc, a, b, k, count)
}

// accumAT8Go is the portable accumAT8: one axpyGo per non-zero of a, in
// row order.
func accumAT8Go(acc, a, b []float64, k, count int) {
	for t := 0; t < count; t++ {
		brow := b[8*t : 8*t+8]
		for c, av := range a[t*k : t*k+k] {
			if av != 0 {
				axpyGo(acc[8*c:8*c+8], brow, av)
			}
		}
	}
}

// ones is the alpha list of an unweighted GatherSum: x*1 is x.
var ones = func() (a [listMax]float64) {
	for i := range a {
		a[i] = 1
	}
	return a
}()

// GatherSum sets dst to a scaled, weighted sum of rows picked out of
// src by index — a vertex's neighbor aggregation in one call:
//
//	dst = scale * Σ_t alpha[t] * src[idx[t]*stride+off : idx[t]*stride+off+len(dst)]
//
// An empty alpha weighs every row 1. Each element's sum starts from +0
// whatever dst held, takes its terms in idx's order, a rounded product
// then a rounded add each (no zero is skipped, no term fused), and is
// multiplied by scale once at the end: the bits of clear(dst), one
// Axpy (or AddTo) per index and one Scal. The assembly keeps a column
// panel of dst in registers from the +0 to the scale, where that
// sequence loads and stores it once per index; it takes listMax terms
// at a time, and a longer list carries the unscaled running sum from
// one call into the next through dst, which changes no bit of it.
//
// It panics, before anything is read, if an index is negative or its
// row would end past len(src), if stride or off is negative, or if
// alpha is neither empty nor as long as idx.
func GatherSum(dst, src []float64, stride, off int, idx []int32, alpha []float64, scale float64) {
	n := len(dst)
	if stride < 0 || off < 0 || len(alpha) != 0 && len(alpha) != len(idx) {
		panic("mat: GatherSum arguments out of range")
	}
	// The largest index whose row ends inside src, by division: a
	// product that overflowed could pass a comparison.
	maxIdx := -1
	if room := len(src) - off - n; room >= 0 {
		maxIdx = math.MaxInt32
		if stride > 0 {
			maxIdx = room / stride
		}
	}
	for _, u := range idx {
		if u < 0 || int(u) > maxIdx {
			panic("mat: GatherSum index out of range")
		}
	}
	if len(idx) == 0 { // the assembly's term loops run at least once
		gatherRowsGo(dst, src, nil, nil, scale, true)
		return
	}
	var offs [listMax]int
	for fresh := true; len(idx) > 0; fresh = false {
		c := min(len(idx), listMax)
		for t, u := range idx[:c] {
			offs[t] = int(u)*stride + off
		}
		idx = idx[c:]
		a := ones[:c]
		if len(alpha) != 0 {
			a, alpha = alpha[:c], alpha[c:]
		}
		s := 1.0
		if len(idx) == 0 {
			s = scale
		}
		if useAVX2 && n >= simdMinLen {
			gatherRowsSIMD(dst, src, offs[:c], a, s, fresh, useAVX512)
		} else {
			gatherRowsGo(dst, src, offs[:c], a, s, fresh)
		}
	}
}

// gatherRowsGo is the portable step of GatherSum, and the statement of
// what the assembly computes: dst, cleared first if fresh, takes
// alpha[t] times the len(dst) elements of src at offs[t] for each t in
// order, then is multiplied by scale.
func gatherRowsGo(dst, src []float64, offs []int, alpha []float64, scale float64, fresh bool) {
	if fresh {
		clear(dst)
	}
	for t, o := range offs {
		axpyGo(dst, src[o:o+len(dst)], alpha[t])
	}
	if scale != 1 { // x*1 is x
		scaleGo(dst, scale)
	}
}

// dotFor is axpyFor for dot.
func dotFor(n int) func(x, y []float64) float64 {
	if useAVX2 && n >= simdMinLen {
		return dotAVX2
	}
	return dotGo
}

// axpyGo is the portable axpy. The 4-way unroll gives the compiler
// independent chains to schedule.
func axpyGo(dst, src []float64, alpha float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// dotGo is the portable dot. Its accumulator layout — element i of
// the body goes to lane i mod 4, lanes are summed left to right, the
// tail is added last — is the contract the assembly reproduces.
func dotGo(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += x[i] * y[i]
	}
	return s
}

func reluGo(dst, src []float64) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluGateGo(dst, z, grad []float64) {
	for i, v := range z {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

func addGo(dst, src []float64) {
	for i, x := range src {
		dst[i] += x
	}
}

func scaleGo(dst []float64, alpha float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}
