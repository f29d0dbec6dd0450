// Package sampler implements the graph-sampling subsystem of the
// paper: the frontier sampling algorithm (Ribeiro & Towsley, IMC'10;
// the paper's Algorithm 2), its Dashboard-based fast implementation
// with incremental degree-distribution updates (Algorithms 3-4,
// Theorem 1), the training scheduler's subgraph pool exploiting
// inter-subgraph parallelism (Algorithm 5), and — as the paper's
// stated future-work extension — a family of alternative graph
// samplers (random node, random edge, random walk, forest fire).
//
// All samplers consume an explicit *rng.RNG so that sampling is
// reproducible and goroutine-safe by construction (one RNG per
// sampler instance, never shared). The package has no simulated mode:
// the scaling figures time independent SampleSubgraph calls, one per
// simulated core, and fold them with perf.GroupWall.
package sampler

import (
	"gsgcn/internal/graph"
	"gsgcn/internal/rng"
)

// VertexSampler produces a multiset of training-graph vertices; the
// induced subgraph over those vertices is the minibatch graph G_sub of
// Algorithm 1. Implementations must be safe for concurrent use by
// distinct goroutines *as long as* each call gets its own RNG.
type VertexSampler interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// SampleVertices returns the sampled vertex multiset (duplicates
	// allowed; Induce deduplicates).
	SampleVertices(r *rng.RNG) []int32
}

// SampleSubgraph draws one induced subgraph from g using s.
func SampleSubgraph(g *graph.CSR, s VertexSampler, r *rng.RNG) *graph.Subgraph {
	return g.Induce(s.SampleVertices(r))
}

// RandomNode samples Budget vertices uniformly without replacement.
type RandomNode struct {
	G      *graph.CSR
	Budget int
}

// Name implements VertexSampler.
func (s *RandomNode) Name() string { return "random-node" }

// SampleVertices implements VertexSampler.
func (s *RandomNode) SampleVertices(r *rng.RNG) []int32 {
	idx := r.Sample(s.G.NumVertices(), min(s.Budget, s.G.NumVertices()))
	out := make([]int32, len(idx))
	for i, v := range idx {
		out[i] = int32(v)
	}
	return out
}

// RandomEdge samples edges uniformly and keeps both endpoints until
// the vertex budget is met. Endpoint degrees bias coverage toward
// hubs, matching the classical random-edge sampler.
type RandomEdge struct {
	G      *graph.CSR
	Budget int
}

// Name implements VertexSampler.
func (s *RandomEdge) Name() string { return "random-edge" }

// SampleVertices implements VertexSampler.
func (s *RandomEdge) SampleVertices(r *rng.RNG) []int32 {
	g := s.G
	arcs := int(g.NumDirectedEdges())
	out := make([]int32, 0, s.Budget)
	if arcs == 0 {
		return (&RandomNode{G: g, Budget: s.Budget}).SampleVertices(r)
	}
	for len(out) < s.Budget {
		// Uniform arc = uniform undirected edge (each edge has two arcs).
		a := r.Intn(arcs)
		u := vertexOfArc(g, a)
		v := g.ColIdx[a]
		out = append(out, u, v)
	}
	return out[:s.Budget]
}

// vertexOfArc returns the source vertex owning arc index a via binary
// search over RowPtr.
func vertexOfArc(g *graph.CSR, a int) int32 {
	lo, hi := 0, g.N
	for lo < hi {
		mid := (lo + hi) / 2
		if g.RowPtr[mid+1] <= int64(a) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// RandomWalk runs Walkers independent random walks of length Depth
// from uniform random roots and returns every visited vertex.
type RandomWalk struct {
	G       *graph.CSR
	Walkers int
	Depth   int
}

// Name implements VertexSampler.
func (s *RandomWalk) Name() string { return "random-walk" }

// SampleVertices implements VertexSampler.
func (s *RandomWalk) SampleVertices(r *rng.RNG) []int32 {
	g := s.G
	out := make([]int32, 0, s.Walkers*(s.Depth+1))
	for w := 0; w < s.Walkers; w++ {
		v := int32(r.Intn(g.N))
		out = append(out, v)
		for d := 0; d < s.Depth; d++ {
			deg := g.Degree(v)
			if deg == 0 {
				break
			}
			v = g.Neighbor(v, r.Intn(deg))
			out = append(out, v)
		}
	}
	return out
}

// ForestFire performs a BFS-like burn from random roots, following
// each edge with probability BurnProb, until Budget vertices burn.
type ForestFire struct {
	G        *graph.CSR
	Budget   int
	BurnProb float64
}

// Name implements VertexSampler.
func (s *ForestFire) Name() string { return "forest-fire" }

// SampleVertices implements VertexSampler.
func (s *ForestFire) SampleVertices(r *rng.RNG) []int32 {
	g := s.G
	p := s.BurnProb
	if p <= 0 || p >= 1 {
		p = 0.4
	}
	// Every vertex burns at most once, so a budget above |V| could never
	// be met: it is clamped, as RandomNode clamps its own.
	budget := min(s.Budget, g.N)
	burned := make(map[int32]struct{}, budget)
	out := make([]int32, 0, budget)
	var queue []int32
	for len(out) < budget {
		if len(queue) == 0 {
			root := int32(r.Intn(g.N))
			if _, ok := burned[root]; ok {
				// Re-roll a handful of times; accept duplicates on
				// dense burns rather than looping forever.
				for t := 0; t < 8; t++ {
					root = int32(r.Intn(g.N))
					if _, ok := burned[root]; !ok {
						break
					}
				}
			}
			if _, ok := burned[root]; !ok {
				burned[root] = struct{}{}
				out = append(out, root)
			}
			queue = append(queue, root)
			continue
		}
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if len(out) >= budget {
				break
			}
			if _, ok := burned[w]; ok {
				continue
			}
			if r.Float64() < p {
				burned[w] = struct{}{}
				out = append(out, w)
				queue = append(queue, w)
			}
		}
	}
	return out
}
