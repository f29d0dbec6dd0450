// Package partition implements the paper's Section V: parallel
// feature propagation within the sampled subgraph, partitioned along
// the feature dimension (Algorithm 6), together with the
// communication-cost model of Equation (3) and Theorem 2's closed form
// (OptimalQ), which justifies feature-only partitioning (P = 1) as a
// 2-approximation of the communication-minimal schedule. The count the
// trainer runs comes from Chunks instead: the same question priced
// against the machine — a fixed cost per chunk plus the slab bytes
// that miss the cache — with constants fitted by measurement.
//
// Propagation semantics: every vertex aggregates the mean of its
// neighbors' feature vectors (the feature-aggregation step of Section
// II-A). The backward pass of the same operator distributes gradient
// mass to neighbors scaled by the *source* degree, which on an
// undirected graph is the transpose operator; both directions share
// one kernel parameterized by the normalization mode — the one
// loop in the module that sums neighbor feature rows, under training's
// subgraph steps and serving's full-graph pass alike. A vertex is
// mat.GatherSum's arithmetic — one call per vertex, or, on whole rows
// of at most 16 columns, one mat.GatherCSR call per vertex block: each
// output element has a lane of its own, starts from +0, takes the
// neighbors in adjacency order and is scaled once, so no cut of the
// work can change a bit of a result.
//
// One schedule cuts the work for Propagate and Propagate2D: columns
// first, into the chunk count asked for but never
// into chunks narrower than a register panel (32 columns; a row under
// 64 is one chunk) and always on panel multiples, then vertex ranges
// when that leaves fewer chunks than workers.
package partition

import (
	"sync"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// Norm selects the normalization of the aggregation operator.
type Norm int

const (
	// NormDst computes dst[v] = (1/deg(v)) * sum_{u in N(v)} src[u]
	// — the forward mean aggregator.
	NormDst Norm = iota
	// NormSrc computes dst[v] = sum_{u in N(v)} src[u]/deg(u)
	// — the transpose (backward) of the mean aggregator.
	NormSrc
)

// PropagateRows aggregates every column of src for vertices
// [vlo, vhi) into the (vhi-vlo) x f block dst, whose row i receives
// vertex vlo+i: the unit of work of a pass that streams the graph in
// vertex blocks and keeps only a block of aggregated rows at a time.
func PropagateRows(dst, src *mat.Dense, g *graph.CSR, norm Norm, vlo, vhi int) {
	if dst.Rows != vhi-vlo || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: PropagateRows shape mismatch")
	}
	propagateBlock(dst, vlo, src, g, norm, nil, vlo, vhi, 0, src.Cols)
}

// panel is the narrowest column chunk of a schedule: the widest
// stretch of a row mat.GatherSum holds in registers. A chunk below it
// spends its time on the per-vertex cost of a gather — the call, the
// index check, the edge weights — instead of on columns (at 16 columns
// and Q = 13, 1.0 ms against 0.15 ms in one chunk, one core).
const panel = 32

// colChunks returns how many column chunks a schedule cuts f columns
// into when q are asked for: q, but no more than there are whole
// panels, and one for a row under two panels.
func colChunks(f, q int) int { return max(1, min(q, f/panel)) }

// chunkCols returns columns [lo, hi) of chunk i of n = colChunks(f, q):
// the f/panel whole panels are dealt out evenly, boundaries on panel
// multiples, and the last chunk takes the columns after the last whole
// panel.
func chunkCols(f, n, i int) (lo, hi int) {
	panels := f / panel
	lo, hi = i*panels/n*panel, (i+1)*panels/n*panel
	if i == n-1 {
		hi = f
	}
	return lo, hi
}

// schedule is one propagation cut into pv vertex ranges times nq column
// chunks; block b is vertex range b/nq of column chunk b%nq. The vertex
// ranges are ranges of positions in rows, the vertices the propagation
// computes (every vertex when rows is nil), count of them. Every output
// element belongs to one block and its sum is taken in adjacency order
// inside it, so neither the cut nor the order the blocks run in reaches
// a result.
type schedule struct {
	dst, src *mat.Dense
	g        *graph.CSR
	norm     Norm
	rows     []int
	count    int
	pv, nq   int
	invDeg   []float64 // NormSrc's 1/deg(u) table on a narrow row, set by parallel for its run
}

// newSchedule cuts the propagation of the vertices rows lists into
// colChunks(f, q) column chunks and pv vertex ranges — or, for pv = 0,
// as few vertex ranges as make at least `workers` blocks: columns are
// split first, because a column cut repeats only the adjacency lists
// and no feature (Equation 3 with P = 1), where a vertex cut reads a
// neighbor's row again on every side of it; vertices second, when the
// row is too narrow to give every worker a chunk of its own.
func newSchedule(dst, src *mat.Dense, g *graph.CSR, norm Norm, rows []int, pv, q, workers int) schedule {
	if dst.Rows != g.N || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: propagation shape mismatch")
	}
	count := g.N
	if rows != nil {
		prev := -1
		for _, v := range rows {
			if v <= prev || v >= g.N {
				panic("partition: row list is not strictly ascending vertices of the graph")
			}
			prev = v
		}
		count = len(rows)
	}
	nq := colChunks(src.Cols, q)
	if pv == 0 {
		pv = (workers + nq - 1) / nq
	}
	return schedule{dst: dst, src: src, g: g, norm: norm, rows: rows, count: count, pv: max(1, min(pv, count)), nq: nq}
}

// parallel runs every block, on up to `workers` goroutines. On a row
// propagateNarrow takes under NormSrc it first builds the table of
// 1/deg(u) the blocks share: one O(|V|) pass per propagation.
func (s schedule) parallel(workers int) {
	if s.norm == NormSrc && s.src.Cols <= mat.GatherCSRMax {
		buf := invDegrees(s.g)
		defer invDegreeTables.Put(buf)
		s.invDeg = *buf
	}
	if blocks := s.pv * s.nq; blocks == 1 || workers <= 1 {
		s.run(0, blocks) // no closure: a serial step allocates nothing
	} else {
		perf.Parallel(blocks, workers, func(_, blo, bhi int) { s.run(blo, bhi) })
	}
}

// run propagates blocks [blo, bhi).
func (s schedule) run(blo, bhi int) {
	for b := blo; b < bhi; b++ {
		vi := b / s.nq
		tlo, thi := vi*s.count/s.pv, (vi+1)*s.count/s.pv
		if s.invDeg != nil {
			propagateNarrow(s.dst, 0, s.src, s.g, s.invDeg, s.rows, tlo, thi)
			continue
		}
		clo, chi := chunkCols(s.src.Cols, s.nq, b%s.nq)
		propagateBlock(s.dst, 0, s.src, s.g, s.norm, s.rows, tlo, thi, clo, chi)
	}
}

// Propagate runs the full feature propagation with feature-dimension
// partitioning (Algorithm 6): the feature dimension is split into q
// chunks, none narrower than a register panel, and the chunks — cut
// into vertex ranges too when there are fewer of them than workers —
// are processed by `workers` real goroutines. dst must not alias src.
// It is PropagateList on every vertex.
func Propagate(dst, src *mat.Dense, g *graph.CSR, norm Norm, q, workers int) {
	PropagateList(dst, src, g, norm, nil, q, workers)
}

// PropagateList is Propagate for the vertices rows lists, strictly
// ascending (nil: every vertex): each listed vertex's row of dst gets
// Propagate's bits — a row is its own adjacency walk, whatever else is
// computed — and every other row +0. The vertex ranges of the schedule
// are ranges of the list, so the work splits among the workers by the
// count of listed vertices.
func PropagateList(dst, src *mat.Dense, g *graph.CSR, norm Norm, rows []int, q, workers int) {
	newSchedule(dst, src, g, norm, rows, 0, q, workers).parallel(workers)
}

// Propagate2D is the ablation comparator: it additionally partitions
// the vertex set into pv contiguous ranges (graph partitioning) and
// the features into q chunks, processing the pv*q blocks in parallel.
// The paper argues this brings no benefit for small subgraphs and
// harms load balance; BenchmarkPartitionAblation quantifies it.
func Propagate2D(dst, src *mat.Dense, g *graph.CSR, norm Norm, pv, q, workers int) {
	newSchedule(dst, src, g, norm, nil, max(pv, 1), q, workers).parallel(workers)
}

// propagateBlock aggregates the column range for the vertices at
// positions [tlo, thi) of rows (vertices tlo..thi-1 when rows is nil)
// into dst, whose row 0 is vertex dstLo (0 for a |V|-row destination,
// vlo for a block-local one), and clears that column range in the
// unlisted rows the positions own: those up to the next listed vertex,
// and before the first for tlo = 0 and after the last for thi = the
// list's end. A vertex is GatherSum's arithmetic over its adjacency
// list: every element of the row keeps a lane and a running sum of its
// own, which starts from +0, takes the neighbors in adjacency order and
// is scaled once at the end (the mean) — so the column range, the
// vertex range and the vector width decide nothing about a result.
//
// A whole row of at most mat.GatherCSRMax columns under NormDst goes
// through propagateNarrow, one kernel call for the block; anything else
// through propagatePerVertex, one mat.GatherSum a vertex. (A schedule
// sends narrow NormSrc rows to propagateNarrow itself, with the weight
// table it builds once for all its blocks.)
func propagateBlock(dst *mat.Dense, dstLo int, src *mat.Dense, g *graph.CSR, norm Norm, rows []int, tlo, thi, colLo, colHi int) {
	if norm == NormDst && colLo == 0 && colHi == src.Cols && src.Cols <= mat.GatherCSRMax {
		propagateNarrow(dst, dstLo, src, g, nil, rows, tlo, thi)
		return
	}
	propagatePerVertex(dst, dstLo, src, g, norm, rows, tlo, thi, colLo, colHi)
}

// owned returns the first and one past the last row a block of
// positions [tlo, thi) of rows owns: with a list, the rows from the
// one after the previous block's last vertex to this block's last
// vertex and the unlisted ones after it.
func owned(g *graph.CSR, rows []int, tlo, thi int) (next, end int) {
	if rows == nil {
		return tlo, thi
	}
	next, end = 0, g.N
	if tlo > 0 {
		next = rows[tlo]
	}
	if thi < len(rows) {
		end = rows[thi]
	}
	return next, end
}

// propagateNarrow is propagateBlock on whole rows of at most
// mat.GatherCSRMax columns, under NormDst when invDeg is nil and under
// NormSrc with invDeg the table of 1/deg(u) for every vertex u of g:
// the unlisted rows cleared a run at a time, then the block in one
// mat.GatherCSR call — its neighbour indices checked once, each row's
// sum in registers, the mean's 1/deg(v) computed once per vertex and
// NormSrc's weights read from the table instead of computed per arc.
func propagateNarrow(dst *mat.Dense, dstLo int, src *mat.Dense, g *graph.CSR, invDeg []float64, rows []int, tlo, thi int) {
	f := src.Cols
	if rows != nil {
		next, end := owned(g, rows, tlo, thi)
		for _, v := range rows[tlo:thi] {
			clear(dst.Data[(next-dstLo)*f : (v-dstLo)*f])
			next = v + 1
		}
		clear(dst.Data[(next-dstLo)*f : (end-dstLo)*f])
	}
	mat.GatherCSR(dst.Data, dstLo, src.Data, f, g.RowPtr, g.ColIdx, rows, tlo, thi, invDeg, invDeg == nil)
}

// propagatePerVertex is propagateBlock as one mat.GatherSum per vertex,
// on any column range: an edge's weight is computed where it is used (a
// neighbor of anything has degree >= 1 on a symmetric graph), where a
// per-vertex table would cost a wide propagation an O(|V|) pass for
// what is a small share of its time.
func propagatePerVertex(dst *mat.Dense, dstLo int, src *mat.Dense, g *graph.CSR, norm Norm, rows []int, tlo, thi, colLo, colHi int) {
	f := src.Cols
	next, end := owned(g, rows, tlo, thi) // the first row the block owns that it has not written, and the row after its last
	var wbuf [256]float64                 // a longer adjacency list moves w to the heap, for the rest of the block
	w := wbuf[:0]
	for t := tlo; t < thi; t++ {
		v := t
		if rows != nil {
			v = rows[t]
		}
		for ; next < v; next++ {
			clear(dst.Data[(next-dstLo)*f+colLo : (next-dstLo)*f+colHi])
		}
		next = v + 1
		drow := dst.Data[(v-dstLo)*f+colLo : (v-dstLo)*f+colHi]
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			clear(drow)
			continue
		}
		scale := 1.0
		w = w[:0]
		if norm == NormDst {
			scale = 1 / float64(len(nb))
		} else {
			for _, u := range nb {
				w = append(w, 1/float64(g.Degree(u)))
			}
		}
		mat.GatherSum(drow, src.Data, f, colLo, nb, w, scale)
	}
	for ; next < end; next++ {
		clear(dst.Data[(next-dstLo)*f+colLo : (next-dstLo)*f+colHi])
	}
}

// invDegreeTables recycles NormSrc's weight tables between
// propagations; a table belongs to one propagation from Get to Put and
// is rewritten whole.
var invDegreeTables sync.Pool

// invDegrees returns a table of 1/deg(u) for every vertex u of g (+Inf
// for an isolated one, which no adjacency list names), for the caller
// to put back into invDegreeTables.
func invDegrees(g *graph.CSR) *[]float64 {
	buf, _ := invDegreeTables.Get().(*[]float64)
	if buf == nil || cap(*buf) < g.N {
		grown := make([]float64, g.N)
		buf = &grown
	}
	w := (*buf)[:g.N]
	for u := range w {
		w[u] = 1 / float64(g.RowPtr[u+1]-g.RowPtr[u])
	}
	*buf = w
	return buf
}
