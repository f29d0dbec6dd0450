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
// undirected graph is the transpose operator; both directions, and the
// symmetric and unnormalized operators of the aggregator ablation,
// share one kernel parameterized by the normalization mode — the one
// loop in the module that sums neighbor feature rows, under training's
// subgraph steps and serving's full-graph pass alike. A vertex is one
// mat.GatherSum: each output element has a lane of its own, starts
// from +0, takes the neighbors in adjacency order and is scaled once,
// so no cut of the work can change a bit of a result.
//
// One schedule cuts the work for Propagate and Propagate2D: columns
// first, into the chunk count asked for but never
// into chunks narrower than a register panel (32 columns; a row under
// 64 is one chunk) and always on panel multiples, then vertex ranges
// when that leaves fewer chunks than workers.
package partition

import (
	"math"

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
	// NormSym computes dst[v] = sum_{u in N(v)} src[u]/sqrt(deg(v)·deg(u))
	// — Kipf & Welling's symmetric normalization, its own transpose.
	NormSym
	// NormSum computes dst[v] = sum_{u in N(v)} src[u] — the
	// unnormalized adjacency, its own transpose on an undirected graph.
	NormSum
)

// PropagateRows aggregates every column of src for vertices
// [vlo, vhi) into the (vhi-vlo) x f block dst, whose row i receives
// vertex vlo+i: the unit of work of a pass that streams the graph in
// vertex blocks and keeps only a block of aggregated rows at a time.
func PropagateRows(dst, src *mat.Dense, g *graph.CSR, norm Norm, vlo, vhi int) {
	if dst.Rows != vhi-vlo || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: PropagateRows shape mismatch")
	}
	propagateBlock(dst, vlo, src, g, norm, vlo, vhi, 0, src.Cols)
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
// chunks; block b is vertex range b/nq of column chunk b%nq. Every
// output element belongs to one block and its sum is taken in adjacency
// order inside it, so neither the cut nor the order the blocks run in
// reaches a result.
type schedule struct {
	dst, src *mat.Dense
	g        *graph.CSR
	norm     Norm
	pv, nq   int
}

// newSchedule cuts the propagation into colChunks(f, q) column chunks
// and pv vertex ranges — or, for pv = 0, as few vertex ranges as make
// at least `workers` blocks: columns are split first, because a column
// cut repeats only the adjacency lists and no feature (Equation 3 with
// P = 1), where a vertex cut reads a neighbor's row again on every side
// of it; vertices second, when the row is too narrow to give every
// worker a chunk of its own.
func newSchedule(dst, src *mat.Dense, g *graph.CSR, norm Norm, pv, q, workers int) schedule {
	if dst.Rows != g.N || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: propagation shape mismatch")
	}
	nq := colChunks(src.Cols, q)
	if pv == 0 {
		pv = (workers + nq - 1) / nq
	}
	return schedule{dst, src, g, norm, max(1, min(pv, g.N)), nq}
}

// parallel runs every block, on up to `workers` goroutines.
func (s schedule) parallel(workers int) {
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
		clo, chi := chunkCols(s.src.Cols, s.nq, b%s.nq)
		propagateBlock(s.dst, 0, s.src, s.g, s.norm, vi*s.g.N/s.pv, (vi+1)*s.g.N/s.pv, clo, chi)
	}
}

// Propagate runs the full feature propagation with feature-dimension
// partitioning (Algorithm 6): the feature dimension is split into q
// chunks, none narrower than a register panel, and the chunks — cut
// into vertex ranges too when there are fewer of them than workers —
// are processed by `workers` real goroutines. dst must not alias src.
func Propagate(dst, src *mat.Dense, g *graph.CSR, norm Norm, q, workers int) {
	newSchedule(dst, src, g, norm, 0, q, workers).parallel(workers)
}

// Propagate2D is the ablation comparator: it additionally partitions
// the vertex set into pv contiguous ranges (graph partitioning) and
// the features into q chunks, processing the pv*q blocks in parallel.
// The paper argues this brings no benefit for small subgraphs and
// harms load balance; BenchmarkPartitionAblation quantifies it.
func Propagate2D(dst, src *mat.Dense, g *graph.CSR, norm Norm, pv, q, workers int) {
	newSchedule(dst, src, g, norm, max(pv, 1), q, workers).parallel(workers)
}

// propagateBlock aggregates the column range for vertices [vlo, vhi)
// into dst, whose row 0 is vertex dstLo (0 for a |V|-row destination,
// vlo for a block-local one). A vertex is one mat.GatherSum over its
// adjacency list: every element of the row keeps a lane and a running
// sum of its own, which starts from +0, takes the neighbors in
// adjacency order and is scaled once at the end (the mean) — so the
// column range, the vertex range and the vector width decide nothing
// about a result. An edge's weight is computed where it is used: a
// neighbor of anything has degree >= 1 on a symmetric graph, and a
// per-vertex table would cost every subgraph step an O(|V|) pass.
func propagateBlock(dst *mat.Dense, dstLo int, src *mat.Dense, g *graph.CSR, norm Norm, vlo, vhi, colLo, colHi int) {
	f := src.Cols
	var wbuf [256]float64 // a longer adjacency list moves w to the heap, for the rest of the block
	w := wbuf[:0]
	for v := vlo; v < vhi; v++ {
		drow := dst.Data[(v-dstLo)*f+colLo : (v-dstLo)*f+colHi]
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			clear(drow)
			continue
		}
		scale := 1.0
		w = w[:0]
		switch norm {
		case NormDst:
			scale = 1 / float64(len(nb))
		case NormSrc:
			for _, u := range nb {
				w = append(w, 1/float64(g.Degree(u)))
			}
		case NormSym:
			sv := 1 / math.Sqrt(float64(len(nb)))
			for _, u := range nb {
				w = append(w, sv*(1/math.Sqrt(float64(g.Degree(u)))))
			}
		}
		mat.GatherSum(drow, src.Data, f, colLo, nb, w, scale)
	}
}
