package nn

import (
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
)

// Aggregator selects how a GCN layer pools neighbor features. The
// paper trains with the mean aggregator (Section II-A), and every
// experiment driver and command uses it; the symmetric and sum variants
// are the standard Kipf-Welling and GIN-style alternatives, selected
// only through core.Config.Aggregator (a library caller's choice,
// carried by checkpoints).
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

// Norm returns the partition operator that applies the aggregator in
// the forward direction — the lookup every aggregation in the module
// goes through, subgraph step and full-graph pass alike.
func (a Aggregator) Norm() partition.Norm {
	switch a {
	case AggSym:
		return partition.NormSym
	case AggSum:
		return partition.NormSum
	}
	return partition.NormDst
}

// aggregate applies the forward aggregation operator over g, for the
// vertices rows lists (every vertex when nil; +0 in the others).
func aggregate(dst, src *mat.Dense, g *graph.CSR, agg Aggregator, rows []int, q, workers int) {
	partition.PropagateList(dst, src, g, agg.Norm(), rows, q, workers)
}

// aggregateT applies the transpose (backward) operator. Only the mean
// has one of its own: symmetric normalization is self-adjoint and A is
// symmetric for undirected graphs.
func aggregateT(dst, src *mat.Dense, g *graph.CSR, agg Aggregator, q, workers int) {
	norm := agg.Norm()
	if agg == AggMean {
		norm = partition.NormSrc
	}
	partition.Propagate(dst, src, g, norm, q, workers)
}
