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
type Subgraph struct {
	*CSR
	// Orig[i] is the parent-graph id of local vertex i; strictly
	// increasing.
	Orig []int32
}

// Induce extracts the subgraph induced by the given vertex set
// (duplicates tolerated, order irrelevant). The result's Orig mapping
// is sorted ascending. Cost is O(|vs| log |vs| + Σ deg(v) + N/64),
// with nothing kept between calls: safe from any number of goroutines.
func (g *CSR) Induce(vs []int32) *Subgraph {
	uniq := slices.Clone(vs)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	n := len(uniq)

	// A vertex's local id is its rank in uniq. member has a bit per
	// vertex of g, set for the members of uniq, and before[i] counts
	// the members below vertex 64*i: a lookup is two loads and a
	// popcount, where a map paid a hash and a probe for each of the
	// Σ deg(v) neighbours, most of them not in the set.
	member := make([]uint64, (g.N+63)/64)
	for _, v := range uniq {
		member[v>>6] |= 1 << (v & 63)
	}
	before := make([]int32, len(member))
	count := 0
	for i, word := range member {
		before[i] = int32(count)
		count += bits.OnesCount64(word)
	}
	// The walk has no branch on membership, which is a coin flip on a
	// sampled subgraph: every neighbour's rank is written at k, and k
	// moves on by its membership bit, so a non-member's rank is
	// overwritten by the next one. col is sized once, to the members'
	// degree sum, a bound on k at every write.
	total := 0
	for _, v := range uniq {
		total += g.Degree(v)
	}
	rowPtr := make([]int64, n+1)
	col := make([]int32, total)
	k := 0
	for i, v := range uniq {
		for _, w := range g.Neighbors(v) {
			word, sh := member[w>>6], uint(w&63)
			col[k] = before[w>>6] + int32(bits.OnesCount64(word&(1<<sh-1)))
			k += int(word >> sh & 1)
		}
		rowPtr[i+1] = int64(k)
	}
	return &Subgraph{
		CSR:  &CSR{N: n, RowPtr: rowPtr, ColIdx: col[:k:k]},
		Orig: uniq,
	}
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
