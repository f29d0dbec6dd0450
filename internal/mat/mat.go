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
// via perf.Parallel. Each form also takes a row list (MulList,
// MulATList, MulBTList; the plain names are the every-row case): a
// training step's last layer computes only the rows its loss reads,
// and gets the every-row bits in them. The pair forms (pair.go: MulPair,
// MulATPair) compute a layer's two products of one left operand in one
// pass over it, reading its rows through a row-index operand at (a
// subgraph's vertex ids into the feature table, in any order), so a
// first layer needs no gathered copy of its input; on rows of 8 the
// AVX-512 level runs them through axpyRows4x8Pair and accumAT8Pair,
// axpyRows4x8 and accumAT8 with two accumulators a row and one masked
// alpha shared by both, and the lower levels through those two over a
// four-row copy. Either way they give the bits of the single forms
// over the gathered rows.
package mat

import (
	"fmt"
	"math"
	"sort"
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

// Reuse reshapes *buf to r x c over its own storage when its capacity
// suffices, and sets *buf to a fresh matrix otherwise; it returns *buf.
// Contents are unspecified — callers must fully overwrite (or Zero) the
// result. It exists so per-step scratch matrices in the training hot
// path keep their backing arrays across iterations instead of paying
// a New (allocation + GC) per kernel call.
func Reuse(buf **Dense, r, c int) *Dense {
	n := r * c
	if *buf == nil || cap((*buf).Data) < n {
		*buf = New(r, c)
	}
	m := *buf
	m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
	return m
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
// weight-application GEMM of the paper's Section V-A. It is MulList
// on every row.
func Mul(dst, a, b *Dense, workers int) { MulList(dst, a, b, nil, workers) }

// MulList computes the rows of dst = a * b that rows lists (every row
// when rows is nil; otherwise strictly ascending rows of a) and sets
// every other row of dst to +0: the product with a's unlisted rows
// taken as zeros, to the bit, reading none of them. A row of the
// product is its own serial arithmetic, so a listed row gets Mul's
// bits whatever else is listed; the rows are split among the workers
// by their count, as Mul splits a's.
func MulList(dst, a, b *Dense, rows []int, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Mul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	s := rowsOf(rows, a.Rows, "Mul")
	if s.len() == 0 {
		clear(dst.Data)
		return
	}
	perf.Parallel(s.len(), workers, func(_, lo, hi int) {
		mulRange(dst, a, b, s, lo, hi)
	})
}

// rowSet is the rows of an n-row operand that a row-list form
// computes: every row when list is nil, else the ones list names,
// ascending. A form walks it by position: position t is row at(t), and
// positions [lo, hi) own the rows span(lo, hi) of the result — theirs
// and the unlisted rows up to the next listed one, which the form sets
// to +0. On every row each of these is the identity, so the every-row
// case runs the loops it always ran.
type rowSet struct {
	list []int
	n    int
}

// rowsOf returns the rowSet of list over an n-row operand, after
// checking that list, unless nil, names rows below n in strictly
// ascending order: a repeated row would be added twice.
func rowsOf(list []int, n int, op string) rowSet {
	prev := -1
	for _, i := range list {
		if i <= prev || i >= n {
			panic(fmt.Sprintf("mat: %s row list is not strictly ascending rows below %d", op, n))
		}
		prev = i
	}
	return rowSet{list, n}
}

// len returns the number of rows in the set.
func (s rowSet) len() int {
	if s.list == nil {
		return s.n
	}
	return len(s.list)
}

// at returns the row at position t.
func (s rowSet) at(t int) int {
	if s.list == nil {
		return t
	}
	return s.list[t]
}

// span returns the rows [from, to) that positions [lo, hi) own.
func (s rowSet) span(lo, hi int) (from, to int) {
	if s.list == nil {
		return lo, hi
	}
	from, to = 0, s.n
	if lo > 0 {
		from = s.list[lo]
	}
	if hi < len(s.list) {
		to = s.list[hi]
	}
	return from, to
}

// run returns the end of the run of consecutive rows that starts at
// position t < hi: the first position after t, at most hi, whose row
// does not follow the one before it.
func (s rowSet) run(t, hi int) int {
	if s.list == nil {
		return hi
	}
	for t++; t < hi && s.list[t] == s.list[t-1]+1; t++ {
	}
	return t
}

// pos returns the position of the first listed row at or after row i.
func (s rowSet) pos(i int) int {
	if s.list == nil {
		return i
	}
	return sort.SearchInts(s.list, i)
}

// mulRange computes the rows of dst = a*b at positions [lo, hi) of s
// serially, and clears the unlisted rows those positions own. The
// inner dimension is walked a tile of b's rows at a time, so that
// every output row takes its updates from rows of b that are still in
// the L1 cache; an output row still receives its terms in ascending k,
// and a zero a[i][k] (half of a ReLU output, more under dropout) adds
// nothing to it. Rows of 8 go four consecutive rows at a time through
// axpyRows4x8 — its one caller — over the whole of b (602 rows of 8
// are 38 KB), which measured 12% faster than by tiles; it masks the
// zeros rather than skipping them, the same bits because the rows were
// cleared to +0 first.
func mulRange(dst, a, b *Dense, s rowSet, lo, hi int) {
	n := b.Cols
	ka := a.Cols
	from, to := s.span(lo, hi)
	clear(dst.Data[from*n : to*n])
	tile := listRows(n, ka)
	if n == 8 {
		for t := lo; t < hi; {
			i := s.at(t)
			if t+4 <= hi && s.at(t+3) == i+3 {
				axpyRows4x8(dst.Data[i*8:(i+4)*8], b.Data, a.Data[i*ka:], ka, ka)
				t += 4
				continue
			}
			for k0 := 0; k0 < ka; k0 += tile {
				k1 := min(k0+tile, ka)
				axpyRows(dst.Data[i*8:(i+1)*8], b.Data[k0*8:k1*8], 8, a.Data[i*ka+k0:i*ka+k1], 1, k1-k0)
			}
			t++
		}
		return
	}
	for k0 := 0; k0 < ka; k0 += tile {
		k1 := min(k0+tile, ka)
		btile := b.Data[k0*n : k1*n]
		for t := lo; t < hi; t++ {
			i := s.at(t)
			axpyRows(dst.Data[i*n:(i+1)*n], btile, n, a.Data[i*ka+k0:i*ka+k1], 1, k1-k0)
		}
	}
}

// MulAT computes dst = aᵀ * b (dst is a.Cols x b.Cols). Needed by the
// backward pass: dW = Hᵀ · dY, written straight into the gradient.
// Every element of dst is a sum started from +0, whatever dst held,
// and such a sum is never -0 (+0 + -0 is +0, and so is x + -x): so
// MulAT never returns -0, and writing its result into a gradient gives
// the bits of adding it to a cleared one. It is MulATList on every
// row.
//
// The row range of a is cut into shards whose count depends only on
// the shape — never on workers — and every element of dst is its
// shards' sums, each taken from +0, added in shard order.
// Floating-point addition is not associative, so this fixed grouping
// is what makes the result bit-identical at every worker count (the
// training engine's determinism contract: Workers=1 and Workers=8 must
// produce the same loss trace); the workers only split dst's rows.
func MulAT(dst, a, b *Dense, workers int) { MulATList(dst, a, b, nil, workers) }

// MulATList computes dst = aᵀ * b over the rows of a and b that rows
// lists (every row when rows is nil; otherwise strictly ascending):
// the sum leaves the other rows out, where MulAT on a b whose unlisted
// rows are zeros adds a·(±0) = ±0 for each. Adding ±0 to a sum that
// started from +0 changes none of its bits (such a sum is never -0),
// so, for finite a, the two agree to the bit. The shards are MulAT's,
// cut from a.Rows alone, each taking the listed rows of its range in
// ascending order.
//
// Each chunk of the one parallel region owns rows [c0, c1) of dst:
// it clears them, accumulates shard 0 straight into them — the bits of
// +0 plus that shard's sum, which is never -0 — and adds each later
// shard in order through its own rows of a k x n partial, cleared
// first. So a shard's sum is the same whichever block or worker count
// forms it. A chunk writes its block once per shard, and the grain
// makes that at least elemGrain elements: a 602 x 8 gradient over ten
// shards still splits, one over 16 x 8 does not.
func MulATList(dst, a, b *Dense, rows []int, workers int) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulAT shape mismatch")
	}
	s := rowsOf(rows, a.Rows, "MulAT")
	n := b.Cols
	k := a.Cols
	shards := mulATShards(a.Rows, k, n)
	var partial []float64
	if shards > 1 {
		buf := scratchOf(&mulATScratch, k*n)
		defer mulATScratch.Put(buf)
		partial = (*buf)[:k*n]
	}
	perf.ParallelMin(k, elemGrain/max(1, n*shards), workers, func(_, c0, c1 int) {
		d := dst.Data[c0*n : c1*n]
		clear(d)
		for sh := 0; sh < shards; sh++ {
			lo, hi := s.pos(sh*a.Rows/shards), s.pos((sh+1)*a.Rows/shards)
			if sh == 0 {
				accumATRange(d, a, b, s, lo, hi, c0, c1)
				continue
			}
			p := partial[c0*n : c1*n]
			clear(p)
			accumATRange(p, a, b, s, lo, hi, c0, c1)
			AddTo(d, p)
		}
	})
}

// mulATScratch recycles MulAT's k x n partial buffer between calls. A
// buffer belongs to one call from Get to Put, each chunk clears its own
// rows of it before every shard, so concurrent callers and stale
// contents are both harmless.
var mulATScratch sync.Pool

// scratchOf returns a buffer of at least n floats from pool, which the
// caller puts back once it is done with it.
func scratchOf(pool *sync.Pool, n int) *[]float64 {
	buf, _ := pool.Get().(*[]float64)
	if buf == nil || cap(*buf) < n {
		grown := make([]float64, n)
		buf = &grown
	}
	return buf
}

// mulATShards returns the fixed shard count for a MulAT of the given
// shape: at least 64 rows per shard so each shard's sum amortizes its
// clear and its add, and at most 64 shards (enough to occupy the
// paper's 40-core platform). The 16 MB budget caps the count so that
// shards x k x n floats stay within it. MulAT holds one k x n partial
// whatever the count, so the budget bounds no memory; it only fixes
// the count, which fixes the grouping of every sum and so the bits.
// The count is a function of the problem shape only — never of the
// worker count — which is what keeps the result bit-identical at every
// Workers setting.
func mulATShards(rows, k, n int) int {
	const minBlock = 64
	const maxShards = 64
	const partialBudget = 16 << 20 // bytes of shards x k x n floats
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

// accumATRange adds, into acc (rows [c0, c1) of the k x n product in
// row-major order, acc's row 0 being row c0), the rows at positions
// [lo, hi) of s of aᵀ·b: every element taking its terms in ascending
// row order, a zero of a adding nothing. Row c of the product reads
// column c of a alone, so a block of rows gets the bits it has in the
// whole. On rows of 8 each run of consecutive rows goes to accumAT8,
// which reads a's block of columns along its rows and keeps acc (at
// most 602 rows of 64 bytes) in the L1 cache; it masks the zeros to +0
// rather than skipping them, the same bits because every caller starts
// acc from +0. Other widths take the rows a tile at a time, few enough
// that the tile of b stays in the L1 cache while every row of acc takes
// its terms from it: row c from column c of the tile of a, top to
// bottom — by stride where the tile's rows are consecutive, through
// their list (axpyRowsAt) where they are not.
func accumATRange(acc []float64, a, b *Dense, s rowSet, lo, hi, c0, c1 int) {
	n := b.Cols
	k := a.Cols
	if n == 8 {
		for t := lo; t < hi; {
			end := s.run(t, hi)
			r0, r1 := s.at(t), s.at(end-1)+1
			accumAT8(acc, a.Data[r0*k+c0:], b.Data[r0*8:r1*8], c1-c0, k, r1-r0)
			t = end
		}
		return
	}
	tile := listRows(n, hi-lo)
	for t0 := lo; t0 < hi; t0 += tile {
		t1 := min(t0+tile, hi)
		if s.run(t0, t1) < t1 {
			listed := s.list[t0:t1]
			for c := c0; c < c1; c++ {
				axpyRowsAt(acc[(c-c0)*n:(c-c0+1)*n], b.Data, n, a.Data[c:], k, listed, a.Rows)
			}
			continue
		}
		r0, r1 := s.at(t0), s.at(t1-1)+1
		btile := b.Data[r0*n : r1*n]
		atile := a.Data[r0*k : r1*k]
		for c := c0; c < c1; c++ {
			axpyRows(acc[(c-c0)*n:(c-c0+1)*n], btile, n, atile[c:], k, r1-r0)
		}
	}
}

// MulBT computes dst = a * bᵀ (dst is a.Rows x b.Rows). Needed by the
// backward pass: dH = dY · Wᵀ. It is MulBTList on every row.
func MulBT(dst, a, b *Dense, workers int) { MulBTList(dst, a, b, nil, workers) }

// MulBTList computes the rows of dst = a * bᵀ that rows lists (every
// row when rows is nil; otherwise strictly ascending rows of a) and
// sets every other row to +0 — what MulBT gives a zero row of a
// against a finite b, a dot whose lanes start from +0 and add only
// ±0. A listed row gets MulBT's bits; the rows are split among the
// workers by their count.
func MulBTList(dst, a, b *Dense, rows []int, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulBT shape mismatch")
	}
	s := rowsOf(rows, a.Rows, "MulBT")
	if s.len() == 0 {
		clear(dst.Data)
		return
	}
	packed, buf := mulBTPack(b)
	if buf != nil {
		defer mulBTPacks.Put(buf)
	}
	perf.Parallel(s.len(), workers, func(_, lo, hi int) {
		mulBTRange(dst, a, b, packed, s, lo, hi)
	})
}

// mulBTPacks recycles the packed copies of b that MulBT hands dot16,
// as mulATScratch recycles MulAT's partial: a buffer belongs to one
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
	buf = scratchOf(&mulBTPacks, size)
	packed = (*buf)[:size]
	packBT16(packed, b.Data, b.Cols, groups)
	return packed, buf
}

// mulBTRange computes the rows of dst = a * bᵀ at positions [lo, hi)
// of s serially, and clears the unlisted rows those positions own. The
// rows of b that packed holds (mulBTPack's, possibly none) go sixteen
// at a time through dot16, each group of them staying in the L1 cache
// while the runs of consecutive rows of a stream past. The rest are
// taken a tile at a time, also kept in the L1 cache while the rows of a
// stream past; within a tile dot4 forms four inner products for one
// pass over the a row. Every element is the same dot as in the untiled
// loop.
func mulBTRange(dst, a, b *Dense, packed []float64, s rowSet, lo, hi int) {
	if lo >= hi {
		return
	}
	k := a.Cols
	m := b.Rows
	if s.list != nil {
		next, to := s.span(lo, hi)
		for _, i := range s.list[lo:hi] {
			clear(dst.Data[next*m : i*m])
			next = i + 1
		}
		clear(dst.Data[next*m : to*m])
	}
	done := 0
	if len(packed) > 0 {
		done = len(packed) / k
		for j0 := 0; j0 < done; j0 += 16 {
			for t := lo; t < hi; {
				end := s.run(t, hi)
				r0, r1 := s.at(t), s.at(end-1)+1
				dot16(dst.Data[r0*m+j0:], m, a.Data[r0*k:r1*k], k, r1-r0, packed[j0*k:(j0+16)*k])
				t = end
			}
		}
	}
	dot := dotFor(k)
	tile := tileRows(k, m-done, dotTileBytes)
	for j0 := done; j0 < m; j0 += tile {
		j1 := min(j0+tile, m)
		for t := lo; t < hi; t++ {
			i := s.at(t)
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

// AddScaled computes dst += alpha * src.
func AddScaled(dst, src *Dense, alpha float64) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	Axpy(dst.Data, src.Data, alpha)
}

// Scale multiplies every element by alpha in place.
func (m *Dense) Scale(alpha float64) { Scal(m.Data, alpha) }

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
