// Package partition implements the paper's Section V: parallel
// feature propagation within the sampled subgraph, partitioned along
// the feature dimension (Algorithm 6), together with the
// communication-cost model of Equation (3) and the Theorem 2 solver
// that justifies feature-only partitioning (P = 1) as a
// 2-approximation of the communication-minimal schedule.
//
// Propagation semantics: every vertex aggregates the mean of its
// neighbors' feature vectors (the feature-aggregation step of Section
// II-A). The backward pass of the same operator distributes gradient
// mass to neighbors scaled by the *source* degree, which on an
// undirected graph is the transpose operator; both directions, and the
// symmetric and unnormalized operators of the aggregator ablation,
// share one kernel parameterized by the normalization mode — the one
// loop in the module that sums neighbor feature rows, under training's
// subgraph steps and serving's full-graph pass alike.
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

// PropagateRange aggregates columns [colLo, colHi) of src into dst
// for every vertex of g. dst and src are |V| x f matrices; rows of
// dst outside the column range are left untouched. This is the unit
// of work one processor performs on one feature partition H^(i,j).
func PropagateRange(dst, src *mat.Dense, g *graph.CSR, norm Norm, colLo, colHi int) {
	propagateBlock(dst, 0, src, g, norm, 0, g.N, colLo, colHi)
}

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

// Propagate runs the full feature propagation with feature-dimension
// partitioning (Algorithm 6): the feature dimension is split into q
// chunks and chunks are processed by `workers` real goroutines. dst
// must not alias src.
func Propagate(dst, src *mat.Dense, g *graph.CSR, norm Norm, q, workers int) {
	if dst.Rows != g.N || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: Propagate shape mismatch")
	}
	f := src.Cols
	if q < 1 {
		q = 1
	}
	if q > f {
		q = f
	}
	perf.Parallel(q, workers, func(_, qlo, qhi int) {
		for i := qlo; i < qhi; i++ {
			lo := i * f / q
			hi := (i + 1) * f / q
			if lo < hi {
				PropagateRange(dst, src, g, norm, lo, hi)
			}
		}
	})
}

// SimPropagate executes the same partitioned propagation under the
// simulated multicore executor with p cores (each simulated core
// processes q/p feature chunks), returning the simulated timing used
// by the Fig. 3B harness.
func SimPropagate(dst, src *mat.Dense, g *graph.CSR, norm Norm, q, p int, cfg perf.SimConfig) perf.SimResult {
	f := src.Cols
	if q < 1 {
		q = 1
	}
	if q > f {
		q = f
	}
	if p > q {
		p = q
	}
	return perf.SimRange(q, p, cfg, func(qlo, qhi int) {
		for i := qlo; i < qhi; i++ {
			lo := i * f / q
			hi := (i + 1) * f / q
			if lo < hi {
				PropagateRange(dst, src, g, norm, lo, hi)
			}
		}
	})
}

// Propagate2D is the ablation comparator: it additionally partitions
// the vertex set into pv contiguous ranges (graph partitioning) and
// the features into q chunks, processing the pv*q blocks in parallel.
// The paper argues this brings no benefit for small subgraphs and
// harms load balance; BenchmarkPartitionAblation quantifies it.
func Propagate2D(dst, src *mat.Dense, g *graph.CSR, norm Norm, pv, q, workers int) {
	if dst.Rows != g.N || src.Rows != g.N || dst.Cols != src.Cols {
		panic("partition: Propagate2D shape mismatch")
	}
	f := src.Cols
	if q < 1 {
		q = 1
	}
	if q > f {
		q = f
	}
	if pv < 1 {
		pv = 1
	}
	if pv > g.N {
		pv = g.N
	}
	blocks := pv * q
	perf.Parallel(blocks, workers, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			vi, qi := b/q, b%q
			vlo := vi * g.N / pv
			vhi := (vi + 1) * g.N / pv
			clo := qi * f / q
			chi := (qi + 1) * f / q
			if vlo >= vhi || clo >= chi {
				continue
			}
			propagateBlock(dst, 0, src, g, norm, vlo, vhi, clo, chi)
		}
	})
}

// propagateBlock aggregates the column range for vertices [vlo, vhi)
// into dst, whose row 0 is vertex dstLo (0 for a |V|-row destination,
// vlo for a block-local one). The row arithmetic is mat's vector
// primitives (SIMD where the host has it, same bits everywhere);
// neighbors are added in adjacency order, and the mean scales once
// after the sum. An edge's weight is computed where it is used: a
// neighbor of anything has degree >= 1 on a symmetric graph, and a
// per-vertex table would cost every subgraph step an O(|V|) pass.
func propagateBlock(dst *mat.Dense, dstLo int, src *mat.Dense, g *graph.CSR, norm Norm, vlo, vhi, colLo, colHi int) {
	f := src.Cols
	for v := vlo; v < vhi; v++ {
		drow := dst.Data[(v-dstLo)*f+colLo : (v-dstLo)*f+colHi]
		clear(drow)
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			continue
		}
		switch norm {
		case NormDst, NormSum:
			for _, u := range nb {
				mat.AddTo(drow, src.Data[int(u)*f+colLo:int(u)*f+colHi])
			}
			if norm == NormDst {
				mat.Scal(drow, 1/float64(len(nb)))
			}
		case NormSrc:
			for _, u := range nb {
				mat.Axpy(drow, src.Data[int(u)*f+colLo:int(u)*f+colHi], 1/float64(g.Degree(u)))
			}
		case NormSym:
			sv := 1 / math.Sqrt(float64(len(nb)))
			for _, u := range nb {
				mat.Axpy(drow, src.Data[int(u)*f+colLo:int(u)*f+colHi], sv*(1/math.Sqrt(float64(g.Degree(u)))))
			}
		}
	}
}
