// Package graph provides the compressed-sparse-row graph substrate for
// graph-sampling GCN training: construction from edge lists, degree
// queries, induced-subgraph extraction (the SAMPLE_G output of
// Algorithm 2 line 8), connectivity statistics and BFS components.
//
// Graphs are undirected and stored symmetrically: every edge {u, v}
// appears in both adjacency lists. Vertex ids are int32 internally so
// that graphs at the paper's Amazon scale (1.6M vertices, 132M edges,
// both directions materialized) remain addressable in a few gigabytes.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// CSR is an undirected graph in compressed sparse row form.
// Neighbors of vertex v occupy ColIdx[RowPtr[v]:RowPtr[v+1]], sorted
// ascending with no duplicates.
type CSR struct {
	N      int
	RowPtr []int64
	ColIdx []int32
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return g.N }

// NumEdges returns the number of undirected edges |E| (each stored
// twice internally).
func (g *CSR) NumEdges() int64 { return int64(len(g.ColIdx)) / 2 }

// NumDirectedEdges returns the number of stored directed arcs, 2|E|.
func (g *CSR) NumDirectedEdges() int64 { return int64(len(g.ColIdx)) }

// Degree returns deg(v).
func (g *CSR) Degree(v int32) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Neighbors returns the sorted neighbor list of v, aliasing internal
// storage; callers must not modify it.
func (g *CSR) Neighbors(v int32) []int32 {
	return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]]
}

// Neighbor returns the i-th neighbor of v.
func (g *CSR) Neighbor(v int32, i int) int32 {
	return g.ColIdx[g.RowPtr[v]+int64(i)]
}

// AvgDegree returns the mean vertex degree 2|E|/|V| (the d used to
// size the Dashboard in Algorithm 3 line 1).
func (g *CSR) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.ColIdx)) / float64(g.N)
}

// MaxDegree returns the largest vertex degree.
func (g *CSR) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.N); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *CSR) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Edge is an undirected edge; by convention U <= V after
// normalization inside FromEdges.
type Edge struct{ U, V int32 }

// FromEdges builds a CSR over n vertices from an undirected edge
// list. Self-loops and duplicate edges are discarded (the mean
// aggregator adds the self term separately, mirroring the paper's
// W_self path). It returns an error for out-of-range endpoints.
func FromEdges(n int, edges []Edge) (*CSR, error) {
	deg := make([]int64, n+1)
	valid := 0
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		valid++
	}
	// First pass: count both directions (duplicates removed after
	// sorting each adjacency list).
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	rowPtr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i+1]
	}
	col := make([]int32, rowPtr[n])
	fill := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		col[rowPtr[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		col[rowPtr[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	// Sort and deduplicate each adjacency list, then compact.
	newCol := col[:0]
	newRowPtr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := rowPtr[v], rowPtr[v]+fill[int32(v)]
		nb := col[lo:hi]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		prev := int32(-1)
		for _, w := range nb {
			if w != prev {
				newCol = append(newCol, w)
				prev = w
			}
		}
		newRowPtr[v+1] = int64(len(newCol))
	}
	out := make([]int32, len(newCol))
	copy(out, newCol)
	_ = valid
	return &CSR{N: n, RowPtr: newRowPtr, ColIdx: out}, nil
}

// Subgraph is a vertex-induced subgraph with local ids 0..N-1 and the
// mapping back to the parent graph's vertex ids.
//
// A subgraph returned by InduceInto lives in the buffers of the
// subgraph it was handed, and the next InduceInto into it overwrites
// them: it stays valid until it is handed to InduceInto again — for a
// pool's subgraph, until it is released (sampler.Pool.Release), after
// which the pool may refill it at any moment. Nothing of a subgraph's
// contents reaches the next one: every element of Orig, RowPtr and
// ColIdx is rewritten, and the call's scratch (induceScratch) is all
// zeros between calls.
type Subgraph struct {
	*CSR
	// Orig[i] is the parent-graph id of local vertex i; strictly
	// increasing.
	Orig []int32
}

// induceScratch is what one InduceInto call borrows from
// induceScratches for its length: a bit per vertex of the graph and a
// table of 1 + the local id of each member (0 for the rest), sized to
// the largest graph it has served and all zeros between calls. So the
// O(|V|) tables live once per concurrent call, not once per subgraph.
type induceScratch struct {
	member []uint64
	local  []int32
}

var induceScratches sync.Pool

// Induce extracts the subgraph induced by the given vertex set
// (duplicates tolerated, order irrelevant) into new buffers: it is
// InduceInto(nil, vs), safe from any number of goroutines.
func (g *CSR) Induce(vs []int32) *Subgraph { return g.InduceInto(nil, vs) }

// InduceInto extracts the subgraph induced by the given vertex set
// (duplicates tolerated, order irrelevant) into the buffers of s, which
// must be nil (new buffers) or a subgraph an earlier Induce or
// InduceInto returned and nobody reads any more; it returns s, or the
// new subgraph. The result's Orig mapping is sorted ascending. Cost is
// O(|vs| + Σ deg(v) + |V|/64), plus O(|V|) when the pooled scratch has
// to grow (or the collector has emptied the pool), and once s's buffers
// have grown to a subgraph of this size it allocates nothing. It panics
// if a vertex is not one of g's, before anything is written.
func (g *CSR) InduceInto(s *Subgraph, vs []int32) *Subgraph {
	for _, v := range vs {
		if uint32(v) >= uint32(g.N) {
			panic(fmt.Sprintf("graph: Induce of vertex %d outside [0,%d)", v, g.N))
		}
	}
	if s == nil {
		s = new(Subgraph)
	}
	if s.CSR == nil {
		s.CSR = new(CSR)
	}
	sc, _ := induceScratches.Get().(*induceScratch)
	if sc == nil {
		sc = new(induceScratch)
	}
	words := (g.N + 63) / 64
	if len(sc.member) < words {
		sc.member = make([]uint64, words)
	}
	if len(sc.local) < g.N {
		sc.local = make([]int32, g.N)
	}
	member, local := sc.member[:words], sc.local[:g.N]

	// member has a bit per vertex of g. Setting the sampled ones
	// deduplicates them, and reading the bits back a word at a time
	// lists the members in ascending order, so there is nothing to sort.
	// A member's local id is its place in that list; local holds it, plus
	// one, so that a neighbour's lookup is one load, where a map paid a
	// hash and a probe for each of the Σ deg(v) neighbours, most of them
	// not in the set (and a rank from per-word counts of the bitmap, two
	// loads and a popcount, took twice as long as the one load on a
	// 3 500-vertex graph).
	for _, v := range vs {
		member[v>>6] |= 1 << (v & 63)
	}
	orig := slices.Grow(s.Orig[:0], len(vs))[:len(vs)]
	n, total := 0, 0
	for i, word := range member {
		for ; word != 0; word &= word - 1 {
			v := int32(i<<6 + bits.TrailingZeros64(word))
			orig[n] = v
			n++
			local[v] = int32(n)
			total += g.Degree(v)
		}
	}
	orig = orig[:n]

	// The walk has no branch on membership, which is a coin flip on a
	// sampled subgraph: every neighbour's local id is written at k, and
	// k moves on only past a member's (a non-zero entry of local), so a
	// non-member's is overwritten by the next one. col is sized to the
	// members' degree sum, a bound on k at every write.
	rowPtr := slices.Grow(s.RowPtr[:0], n+1)[:n+1]
	col := slices.Grow(s.ColIdx[:0], total)[:total]
	rowPtr[0] = 0
	k := 0
	for i, v := range orig {
		for _, w := range g.Neighbors(v) {
			l := local[w]
			col[k] = l - 1
			k += int(uint32(-l) >> 31) // 1 for a member, 0 for the rest
		}
		rowPtr[i+1] = int64(k)
	}
	for _, v := range orig { // back to all zeros, by the members
		member[v>>6] = 0
		local[v] = 0
	}
	induceScratches.Put(sc)
	*s.CSR = CSR{N: n, RowPtr: rowPtr, ColIdx: col[:k]}
	s.Orig = orig
	return s
}

// ConnectedComponents labels each vertex with a component id in
// [0, k) and returns the labels and k. BFS-based, O(V+E).
func (g *CSR) ConnectedComponents() (labels []int32, k int) {
	labels = make([]int32, g.N)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); s < int32(g.N); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = int32(k)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = int32(k)
					queue = append(queue, w)
				}
			}
		}
		k++
	}
	return labels, k
}

// LargestComponentFraction returns the fraction of vertices inside the
// largest connected component — one of the connectivity measures used
// to check that sampled subgraphs preserve the training graph's
// structure (Section III-C).
func (g *CSR) LargestComponentFraction() float64 {
	if g.N == 0 {
		return 0
	}
	labels, k := g.ConnectedComponents()
	counts := make([]int64, k)
	for _, l := range labels {
		counts[l]++
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / float64(g.N)
}

// Stats bundles summary statistics of a graph (Table I columns plus
// connectivity measures).
type Stats struct {
	Vertices   int
	Edges      int64
	AvgDegree  float64
	MaxDegree  int
	Components int
	LCCFrac    float64
}

// ComputeStats returns summary statistics; Components/LCCFrac require
// a BFS pass and are skipped when full is false.
func (g *CSR) ComputeStats(full bool) Stats {
	s := Stats{
		Vertices:  g.N,
		Edges:     g.NumEdges(),
		AvgDegree: g.AvgDegree(),
		MaxDegree: g.MaxDegree(),
	}
	if full {
		labels, k := g.ConnectedComponents()
		s.Components = k
		counts := make([]int64, k)
		for _, l := range labels {
			counts[l]++
		}
		var max int64
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if g.N > 0 {
			s.LCCFrac = float64(max) / float64(g.N)
		}
	}
	return s
}
