// Package mat implements the dense linear-algebra substrate for GCN
// training: row-major float64 matrices with parallel, cache-blocked
// matrix multiplication and the elementwise kernels used by forward
// and backward propagation.
//
// It plays the role of Intel MKL in the paper's C++ implementation
// (the weight-application step, Section V-A, is a dense GEMM). The
// multiplication kernels are loops over a handful of vector
// primitives (simd.go: Axpy, Dot, AddTo, Scal, and under a·b and aᵀ·b
// the list kernel axpyRows, which keeps a stretch of an output row in
// registers while it takes a whole tile's non-zero terms; on rows of 8
// axpyRows4x8 under a·b, which advances four output rows per pass, and
// accumAT8 under aᵀ·b, which reads a along its rows four at a time into
// an accumulator that stays in the L1 cache, both masking a zero term
// to +0 where axpyRows skips it; and under a·bᵀ dot16,
// sixteen inner products per pass over a pair-packed copy of b) at
// three levels picked once from the CPU's feature bits: AVX-512 where
// the CPU and the operating system have it, AVX2 assembly elsewhere on
// amd64, portable Go loops otherwise. The levels give the same bits,
// because none changes the operations an element sees or their order:
// a wider register only holds more lanes, and dot16's packing keeps
// each inner product's four Dot lanes. GatherSum, the feature-aggregation
// step's inner loop (Section V-B), walks a vertex's adjacency list the
// same way: every element of the output row keeps a lane of its own,
// starts from +0, takes the neighbors in list order and is scaled once,
// so it returns the bits of a clear, an Axpy per neighbor and a Scal
// without storing the row in between. Every form keeps each output
// element's sum in ascending k order and tiles only the loops around
// it, so that one operand is consumed an L1-sized block at a time
// while the other streams past; they parallelize across row blocks
// via perf.Parallel.
package mat

import (
	"fmt"
	"math"
	"sync"

	"gsgcn/internal/perf"
)

// Dispatch grains for the cheap kernels: parallel dispatch is only
// worth it when each chunk amortizes the pool handoff. Both are pure
// constants, so the effective decomposition stays a function of shape
// and worker count alone (the determinism contract).
const (
	// elemGrain is the minimum elements per chunk for elementwise
	// kernels (one add or one function call per index).
	elemGrain = 4096
	// copyRowGrain is the minimum rows per chunk for row-copy kernels
	// (one memmove per index).
	copyRowGrain = 64
)

// The GEMM loops keep a block of one operand in the L1 cache while the
// other operand streams past it. A tile changes which rows are cached
// when they are used again, never the order in which an output
// element's terms are added, so results do not depend on its size. The
// sizes are measured (one core of a Xeon with a 48 KB L1, the shapes of
// BenchmarkMul, BenchmarkMulAT and BenchmarkMulBT):
const (
	// dotTileBytes is the tile of b's rows in a·bᵀ. Every row of it
	// is read whole for each row of a; at 32 KB the hidden-128 layer's
	// product measured 6-11% slower than at 16 KB.
	dotTileBytes = 16 << 10
	// listTileBytes is the tile of b's rows in a·b and aᵀ·b, whose
	// kernel reads a tile one column panel at a time and pays a fixed
	// price per call — a call, a compaction, a mispredicted loop exit
	// per panel — that a longer list spreads thinner: 32 KB is 20%
	// faster than 16 KB where half of a is zeros, and 48 KB, where the
	// tile no longer shares the L1 with the rows streaming past, is
	// slower again.
	listTileBytes = 32 << 10
)

// tileMinCols is the narrowest row worth tiling for: below two cache
// lines a row's cost is its call, not its cache misses, and every
// extra pass over the other operand only adds to it.
const tileMinCols = 16

// tileRows is the number of rows, of the given width, in one tile of
// the given size of an operand with that many rows.
func tileRows(cols, rows, tileBytes int) int {
	if cols < tileMinCols {
		return max(1, rows)
	}
	return max(1, tileBytes/(8*cols))
}

// listRows is the tile of the two forms whose inner loop is axpyRows,
// which takes its terms from at most listMax rows at a time.
func listRows(cols, rows int) int { return min(tileRows(cols, rows, listTileBytes), listMax) }

// Dense is a row-major matrix. Data[i*Cols+j] is element (i, j).
// The zero value is an empty matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r x c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Reuse returns an r x c matrix backed by buf's storage when its
// capacity suffices, allocating a fresh matrix otherwise. Contents
// are unspecified — callers must fully overwrite (or Zero) the
// result. It exists so per-step scratch matrices in the training hot
// path keep their backing arrays across iterations instead of paying
// a New (allocation + GC) per kernel call.
func Reuse(buf *Dense, r, c int) *Dense {
	n := r * c
	if buf == nil || cap(buf.Data) < n {
		return New(r, c)
	}
	buf.Rows, buf.Cols = r, c
	buf.Data = buf.Data[:n]
	return buf
}

// FromData wraps the given backing slice (not copied) as an r x c
// matrix. It panics if the slice has the wrong length.
func FromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromData %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Equal reports whether m and n have identical shape and elements
// within tolerance tol (a finite tol: a NaN opposite a number differs
// from it by +Inf, see MaxAbsDiff). It compares values, so -0 equals
// +0; a claim of identical bits needs math.Float64bits.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if absDiff(v, n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest elementwise absolute difference, where
// two NaNs differ by 0 and a NaN and a number by +Inf.
func (m *Dense) MaxAbsDiff(n *Dense) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		if d := absDiff(v, n.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// absDiff is |v - w| made total: 0 between equal values (infinities of
// one sign included, whose difference is NaN) and between two NaNs, +Inf
// between a NaN and a number — where v-w is NaN, which compares false
// against any tolerance and would pass.
func absDiff(v, w float64) float64 {
	switch {
	case v == w:
		return 0
	case v != v || w != w:
		if v != v && w != w {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(v - w)
}

// Mul computes dst = a * b using workers goroutines. dst must be
// pre-shaped (a.Rows x b.Cols) and must not alias a or b. This is the
// weight-application GEMM of the paper's Section V-A.
func Mul(dst, a, b *Dense, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	perf.Parallel(a.Rows, workers, func(_, lo, hi int) {
		mulRange(dst, a, b, lo, hi)
	})
}

// MulBTRange computes rows [lo, hi) of dst = a * bᵀ serially.
func MulBTRange(dst, a, b *Dense, lo, hi int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBTRange shape mismatch")
	}
	packed, buf := mulBTPack(b)
	if buf != nil {
		defer mulBTPacks.Put(buf)
	}
	mulBTRange(dst, a, b, packed, lo, hi)
}

// mulRange computes rows [lo, hi) of dst = a*b serially. The inner
// dimension is walked a tile of b's rows at a time, so that every
// output row takes its updates from rows of b that are still in the
// L1 cache; an output row still receives its terms in ascending k,
// and a zero a[i][k] (half of a ReLU output, more under dropout) adds
// nothing to it. Rows of 8 go four at a time through axpyRows4x8 —
// its one caller — over the whole of b (602 rows of 8 are 38 KB),
// which measured 12% faster than by tiles; it masks the zeros rather
// than skipping them, the same bits because the rows were cleared to
// +0 first.
func mulRange(dst, a, b *Dense, lo, hi int) {
	n := b.Cols
	ka := a.Cols
	clear(dst.Data[lo*n : hi*n])
	if n == 8 {
		for ; lo+4 <= hi; lo += 4 {
			axpyRows4x8(dst.Data[lo*8:(lo+4)*8], b.Data, a.Data[lo*ka:], ka, ka)
		}
	}
	tile := listRows(n, ka)
	for k0 := 0; k0 < ka; k0 += tile {
		k1 := min(k0+tile, ka)
		btile := b.Data[k0*n : k1*n]
		for i := lo; i < hi; i++ {
			axpyRows(dst.Data[i*n:(i+1)*n], btile, n, a.Data[i*ka+k0:i*ka+k1], 1, k1-k0)
		}
	}
}

// MulAT computes dst = aᵀ * b (dst is a.Cols x b.Cols). Needed by the
// backward pass: dW = Hᵀ · dY.
//
// The row range of a is decomposed into a fixed number of shards that
// depends only on a.Rows — never on workers — each shard accumulates a
// private partial product, and the partials are reduced in shard
// order. Floating-point addition is not associative, so this fixed
// decomposition is what makes the result bit-identical at every worker
// count (the training engine's determinism contract: Workers=1 and
// Workers=8 must produce the same loss trace).
func MulAT(dst, a, b *Dense, workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulAT shape mismatch")
	}
	n := b.Cols
	k := a.Cols
	shards := mulATShards(a.Rows, k, n)
	if shards <= 1 {
		dst.Zero()
		accumATRange(dst.Data, a, b, 0, a.Rows)
		return
	}
	// shards > 1 always goes through per-shard partial products — even
	// at workers == 1 — so that every worker count performs the exact
	// same additions in the exact same grouping: each partial starts
	// from zero, and dst is zero plus the partials in shard order. One
	// worker adds each partial to dst as soon as it is complete and
	// reuses its buffer for the next; several workers need all of them
	// at once.
	size := k * n
	live := shards
	if workers <= 1 {
		live = 1
	}
	buf, _ := mulATScratch.Get().(*[]float64)
	if buf == nil || cap(*buf) < live*size {
		grown := make([]float64, live*size)
		buf = &grown
	}
	defer mulATScratch.Put(buf)
	partials := (*buf)[:live*size]
	if live == 1 {
		dst.Zero()
		for s := 0; s < shards; s++ {
			clear(partials)
			accumATRange(partials, a, b, s*a.Rows/shards, (s+1)*a.Rows/shards)
			AddTo(dst.Data, partials)
		}
		return
	}
	perf.Parallel(shards, workers, func(_, slo, shi int) {
		for s := slo; s < shi; s++ {
			p := partials[s*size : (s+1)*size]
			clear(p)
			accumATRange(p, a, b, s*a.Rows/shards, (s+1)*a.Rows/shards)
		}
	})
	// Each output element is owned by exactly one chunk, so the
	// reduction parallelizes bit-exactly.
	perf.ParallelMin(size, elemGrain, workers, func(_, lo, hi int) {
		d := dst.Data[lo:hi]
		clear(d)
		for s := 0; s < shards; s++ {
			AddTo(d, partials[s*size+lo:s*size+hi])
		}
	})
}

// mulATScratch recycles MulAT's partial buffers between calls: a
// training step makes five calls at up to shards x k x n floats each
// (k x n on one worker), which used to be that many fresh allocations.
// A buffer belongs to one call from Get to Put, and every shard zeroes
// its slice before accumulating, so concurrent callers and stale
// contents are both harmless.
var mulATScratch sync.Pool

// mulATShards returns the fixed shard count for a MulAT of the given
// shape: at least 64 rows per shard so each partial amortizes its
// zeroing and reduction, at most 64 shards (enough to occupy the
// paper's 40-core platform), and few enough that the k x n partial buffers stay
// within a fixed memory budget. The count is a function of the
// problem shape only — never of the worker count — which is what
// keeps the reduction order, and therefore the result, bit-identical
// at every Workers setting.
func mulATShards(rows, k, n int) int {
	const minBlock = 64
	const maxShards = 64
	const partialBudget = 16 << 20 // bytes across all partial buffers
	s := rows / minBlock
	if s > maxShards {
		s = maxShards
	}
	if bytes := k * n * 8; bytes > 0 {
		if byBudget := partialBudget / bytes; s > byBudget {
			s = byBudget
		}
	}
	if s < 1 {
		s = 1
	}
	return s
}

// accumATRange adds rows [lo, hi) of the product aᵀ·b into acc (a
// k x n buffer in row-major order), every element taking its terms in
// ascending row order, a zero of a adding nothing. On rows of 8 the
// whole range goes to accumAT8, which reads a along its rows and keeps
// acc (at most 602 rows of 64 bytes) in the L1 cache; it masks the
// zeros to +0 rather than skipping them, the same bits because every
// caller starts acc from +0. Other widths take the rows a tile at a
// time, few enough that the tile of b stays in the L1 cache while every
// row of acc takes its terms from it: row c from column c of the tile
// of a, top to bottom.
func accumATRange(acc []float64, a, b *Dense, lo, hi int) {
	n := b.Cols
	k := a.Cols
	if n == 8 {
		accumAT8(acc, a.Data[lo*k:hi*k], b.Data[lo*8:hi*8], k, hi-lo)
		return
	}
	tile := listRows(n, hi-lo)
	for r0 := lo; r0 < hi; r0 += tile {
		r1 := min(r0+tile, hi)
		btile := b.Data[r0*n : r1*n]
		atile := a.Data[r0*k : r1*k]
		for c := 0; c < k; c++ {
			axpyRows(acc[c*n:(c+1)*n], btile, n, atile[c:], k, r1-r0)
		}
	}
}

// MulBT computes dst = a * bᵀ (dst is a.Rows x b.Rows). Needed by the
// backward pass: dH = dY · Wᵀ.
func MulBT(dst, a, b *Dense, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBT shape mismatch")
	}
	packed, buf := mulBTPack(b)
	if buf != nil {
		defer mulBTPacks.Put(buf)
	}
	perf.Parallel(a.Rows, workers, func(_, lo, hi int) {
		mulBTRange(dst, a, b, packed, lo, hi)
	})
}

// mulBTPacks recycles the packed copies of b that MulBT hands dot16,
// as mulATScratch recycles MulAT's partials: a buffer belongs to one
// call from Get to Put and is written whole before it is read.
var mulBTPacks sync.Pool

// mulBTPack packs b's rows for dot16, as many whole groups of sixteen as
// it has, into a buffer from mulBTPacks, which the caller puts back
// once the product is done. It returns nil where dot16 does not run:
// below the AVX-512 level, on rows shorter than simdMinLen or fewer than
// sixteen of them.
func mulBTPack(b *Dense) (packed []float64, buf *[]float64) {
	groups := b.Rows / 16
	if !useAVX512 || b.Cols < simdMinLen || groups == 0 {
		return nil, nil
	}
	size := groups * 16 * b.Cols
	buf, _ = mulBTPacks.Get().(*[]float64)
	if buf == nil || cap(*buf) < size {
		grown := make([]float64, size)
		buf = &grown
	}
	packed = (*buf)[:size]
	packBT16(packed, b.Data, b.Cols, groups)
	return packed, buf
}

// mulBTRange computes rows [lo, hi) of dst = a * bᵀ serially. The rows
// of b that packed holds (mulBTPack's, possibly none) go sixteen at a
// time through dot16, each group of them staying in the L1 cache while
// the rows of a stream past. The rest are taken a tile at a time, also
// kept in the L1 cache while the rows of a stream past; within a tile
// dot4 forms four inner products for one pass over the a row. Every
// element is the same dot as in the untiled loop.
func mulBTRange(dst, a, b *Dense, packed []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	k := a.Cols
	m := b.Rows
	done := 0
	if len(packed) > 0 {
		done = len(packed) / k
		arows := a.Data[lo*k : hi*k]
		for j0 := 0; j0 < done; j0 += 16 {
			dot16(dst.Data[lo*m+j0:], m, arows, k, hi-lo, packed[j0*k:(j0+16)*k])
		}
	}
	dot := dotFor(k)
	tile := tileRows(k, m-done, dotTileBytes)
	for j0 := done; j0 < m; j0 += tile {
		j1 := min(j0+tile, m)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*m : (i+1)*m]
			j := j0
			for ; j+4 <= j1; j += 4 {
				dot4(drow[j:j+4], arow, b.Data[j*k:(j+4)*k], k)
			}
			for ; j < j1; j++ {
				drow[j] = dot(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
}

// Add computes dst = a + b elementwise.
func Add(dst, a, b *Dense) {
	checkSameShape3(dst, a, b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise.
func Sub(dst, a, b *Dense) {
	checkSameShape3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// AddScaled computes dst += alpha * src.
func AddScaled(dst, src *Dense, alpha float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	Axpy(dst.Data, src.Data, alpha)
}

// Scale multiplies every element by alpha in place.
func (m *Dense) Scale(alpha float64) { Scal(m.Data, alpha) }

// Apply sets dst[i] = f(a[i]) elementwise. dst may alias a.
func Apply(dst, a *Dense, f func(float64) float64) {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic("mat: Apply shape mismatch")
	}
	for i, v := range a.Data {
		dst.Data[i] = f(v)
	}
}

// AddScaledP is AddScaled sharded across workers goroutines;
// element-owned, hence bit-identical to AddScaled at every worker
// count.
func AddScaledP(dst, src *Dense, alpha float64, workers int) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaledP shape mismatch")
	}
	perf.ParallelMin(len(dst.Data), elemGrain, workers, func(_, lo, hi int) {
		Axpy(dst.Data[lo:hi], src.Data[lo:hi], alpha)
	})
}

// ConcatCols writes [a | b] into dst (dst is a.Rows x (a.Cols+b.Cols)).
// This implements the neighbor-self concatenation of Algorithm 1 line 9.
func ConcatCols(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("mat: ConcatCols shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		copy(drow[:a.Cols], a.Row(i))
		copy(drow[a.Cols:], b.Row(i))
	}
}

// ConcatColsP is ConcatCols sharded by contiguous row blocks; each
// output row is owned by exactly one worker, so the result matches
// ConcatCols bit-for-bit at every worker count.
func ConcatColsP(dst, a, b *Dense, workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic("mat: ConcatColsP shape mismatch")
	}
	perf.ParallelMin(a.Rows, copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			copy(drow[:a.Cols], a.Row(i))
			copy(drow[a.Cols:], b.Row(i))
		}
	})
}

// SplitCols is the inverse of ConcatCols: it copies the first a.Cols
// columns of src into a and the rest into b (used to route gradients
// back through the concatenation).
func SplitCols(a, b, src *Dense) {
	if a.Rows != src.Rows || b.Rows != src.Rows || src.Cols != a.Cols+b.Cols {
		panic("mat: SplitCols shape mismatch")
	}
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		copy(a.Row(i), srow[:a.Cols])
		copy(b.Row(i), srow[a.Cols:])
	}
}

// SplitColsP is SplitCols sharded by contiguous row blocks
// (row-owned, bit-identical to SplitCols at every worker count).
func SplitColsP(a, b, src *Dense, workers int) {
	if a.Rows != src.Rows || b.Rows != src.Rows || src.Cols != a.Cols+b.Cols {
		panic("mat: SplitColsP shape mismatch")
	}
	perf.ParallelMin(src.Rows, copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			srow := src.Row(i)
			copy(a.Row(i), srow[:a.Cols])
			copy(b.Row(i), srow[a.Cols:])
		}
	})
}

// GatherRows writes a[idx[i]] into dst row i. It implements
// H(0)[V_sub] of Algorithm 1 line 5.
func GatherRows(dst, a *Dense, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != a.Cols {
		panic("mat: GatherRows shape mismatch")
	}
	for i, r := range idx {
		copy(dst.Row(i), a.Data[r*a.Cols:(r+1)*a.Cols])
	}
}

// GatherRowsP is GatherRows sharded by contiguous destination row
// blocks (row-owned, bit-identical to GatherRows at every worker
// count). It parallelizes the minibatch feature/label gather of
// Algorithm 1 line 5.
func GatherRowsP(dst, a *Dense, idx []int, workers int) {
	if dst.Rows != len(idx) || dst.Cols != a.Cols {
		panic("mat: GatherRowsP shape mismatch")
	}
	perf.ParallelMin(len(idx), copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := idx[i]
			copy(dst.Row(i), a.Data[r*a.Cols:(r+1)*a.Cols])
		}
	})
}

// Transpose returns aᵀ as a new matrix.
func Transpose(a *Dense) *Dense {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.Data[j*a.Rows+i] = v
		}
	}
	return out
}

// FrobeniusNorm returns sqrt(sum of squares).
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

func checkSameShape3(a, b, c *Dense, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Rows != c.Rows || a.Cols != c.Cols {
		panic("mat: " + op + " shape mismatch")
	}
}
