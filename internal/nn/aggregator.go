package nn

import (
	"math"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
)

// Aggregator selects how a GCN layer pools neighbor features. The
// paper trains with the mean aggregator (Section II-A); the symmetric
// and sum variants are the standard Kipf-Welling and GIN-style
// alternatives used by the sampler-ablation experiments.
type Aggregator int

const (
	// AggMean averages neighbor features: D⁻¹·A (the paper's choice).
	AggMean Aggregator = iota
	// AggSym is the symmetric normalization D^{-1/2}·A·D^{-1/2} of
	// Kipf & Welling. It is self-adjoint, so forward and backward use
	// the same operator.
	AggSym
	// AggSum is the unnormalized adjacency A.
	AggSum
)

// String names the aggregator.
func (a Aggregator) String() string {
	switch a {
	case AggMean:
		return "mean"
	case AggSym:
		return "sym"
	case AggSum:
		return "sum"
	}
	return "unknown"
}

// aggregate applies the forward aggregation operator over g.
func aggregate(dst, src *mat.Dense, g *graph.CSR, agg Aggregator, q, workers int) {
	switch agg {
	case AggMean:
		partition.Propagate(dst, src, g, partition.NormDst, q, workers)
	case AggSym:
		symPropagate(dst, src, g, q, workers)
	case AggSum:
		sumPropagate(dst, src, g, q, workers)
	}
}

// aggregateT applies the transpose (backward) operator.
func aggregateT(dst, src *mat.Dense, g *graph.CSR, agg Aggregator, q, workers int) {
	switch agg {
	case AggMean:
		partition.Propagate(dst, src, g, partition.NormSrc, q, workers)
	case AggSym:
		// Symmetric normalization is self-adjoint.
		symPropagate(dst, src, g, q, workers)
	case AggSum:
		// A is symmetric for undirected graphs.
		sumPropagate(dst, src, g, q, workers)
	}
}

// symPropagate computes dst[v] = Σ_u src[u] / sqrt(deg(v)·deg(u)),
// feature-partitioned like partition.Propagate.
func symPropagate(dst, src *mat.Dense, g *graph.CSR, q, workers int) {
	f := src.Cols
	if q < 1 {
		q = 1
	}
	if q > f {
		q = f
	}
	invSqrt := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > 0 {
			invSqrt[v] = 1 / math.Sqrt(float64(d))
		}
	}
	forEachChunk(f, q, workers, func(lo, hi int) {
		for v := 0; v < g.N; v++ {
			drow := dst.Data[v*f+lo : v*f+hi]
			clear(drow)
			for _, u := range g.Neighbors(int32(v)) {
				mat.Axpy(drow, src.Data[int(u)*f+lo:int(u)*f+hi], invSqrt[v]*invSqrt[u])
			}
		}
	})
}

// sumPropagate computes dst[v] = Σ_u src[u].
func sumPropagate(dst, src *mat.Dense, g *graph.CSR, q, workers int) {
	f := src.Cols
	if q < 1 {
		q = 1
	}
	if q > f {
		q = f
	}
	forEachChunk(f, q, workers, func(lo, hi int) {
		for v := 0; v < g.N; v++ {
			drow := dst.Data[v*f+lo : v*f+hi]
			clear(drow)
			for _, u := range g.Neighbors(int32(v)) {
				mat.AddTo(drow, src.Data[int(u)*f+lo:int(u)*f+hi])
			}
		}
	})
}

// forEachChunk runs fn over q feature chunks with `workers` real
// goroutines, mirroring Algorithm 6's schedule.
func forEachChunk(f, q, workers int, fn func(lo, hi int)) {
	perfParallel(q, workers, func(qlo, qhi int) {
		for i := qlo; i < qhi; i++ {
			lo := i * f / q
			hi := (i + 1) * f / q
			if lo < hi {
				fn(lo, hi)
			}
		}
	})
}

// perfParallel adapts perf.Parallel's signature for chunk loops.
func perfParallel(n, workers int, fn func(lo, hi int)) {
	perf.Parallel(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}
