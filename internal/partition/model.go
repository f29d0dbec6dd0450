package partition

import (
	"math"

	"gsgcn/internal/graph"
)

// The communication model of Section V-B, Equation (3):
//
//	gcomm(P, Q) = 2·Q·n·d  +  8·P·n·f·γP   (bytes)
//
// The first term streams the CSR neighbor lists (INT16 vertex ids, 2
// bytes) once per feature partition; the second loads the feature
// blocks H^(i,j) (DOUBLE values, 8 bytes) once per vertex partition,
// inflated by γP = |V_src^(i)|/|V|, the replication factor of the
// vertex partitioning.

// CommModel carries the problem parameters of the partitioning
// optimization (4).
type CommModel struct {
	N          int     // subgraph vertices n
	AvgDeg     float64 // subgraph average degree d
	F          int     // feature length f
	Cores      int     // available processors C
	CacheBytes int     // per-core fast memory S_cache
}

// Volume returns gcomm(P, Q) in bytes under replication factor gamma.
func (m CommModel) Volume(p, q int, gamma float64) float64 {
	return 2*float64(q)*float64(m.N)*m.AvgDeg + 8*float64(p)*float64(m.N)*float64(m.F)*gamma
}

// LowerBound returns the partition-independent lower bound 8·n·f
// derived in the proof of Theorem 2 (every feature byte must cross
// the slow-to-fast boundary at least once).
func (m CommModel) LowerBound() float64 {
	return 8 * float64(m.N) * float64(m.F)
}

// OptimalQ returns the Theorem 2 feature-partition count
// Q = max(C, ceil(8·n·f / S_cache)) used with P = 1: the paper's
// closed form, which the Theorem 2, Fig. 3 and Table II reports use.
// The trainer runs Chunks instead.
func (m CommModel) OptimalQ() int {
	return m.clampQ(max(m.Cores, m.cacheQ(8*float64(m.N)*float64(m.F))))
}

// cacheQ returns ceil(bytes / S_cache), the fewest partitions whose
// share of bytes fits the cache (0 without a cache figure).
func (m CommModel) cacheQ(bytes float64) int {
	if m.CacheBytes <= 0 {
		return 0
	}
	return int(math.Ceil(bytes / float64(m.CacheBytes)))
}

// clampQ bounds a partition count to [1, f]: more partitions than
// features is meaningless, the cache constraint is then unsatisfiable
// and Q = f is the finest cut.
func (m CommModel) clampQ(q int) int {
	return max(1, min(q, m.F))
}

// The machine Chunks prices a propagation against, fitted to Propagate
// at one core on an Intel Xeon (Sapphire Rapids, 2 MiB L2 per core):
// medians of seven runs of ten calls (five of three on the whole graph)
// at every q from 1 to the cap, on sampled subgraphs of the train_prop
// (reddit, n = 677 and 686, d ≈ 26) and train_gemm (ppi, n = 425 and
// 435, d ≈ 8) workloads and on the whole 3494-vertex reddit graph
// (d = 42.5), at f = 50 to 1000. Propagate at q chunks:
//
//	shape, f                q=1     2     3     4     6     9    13  best Chunks paper Q
//	train_prop sub, 602 µs 1850  1764  1795  1895  2010  2392  2986     2      2      13
//	train_prop sub, 300 µs  716   785   860   931  1050  1189     -     1      1       7
//	train_prop sub, 128 µs  318   381   446   500     -     -     -     1      1       3
//	train_gemm sub, 602 µs  355   392   420   447   500   586   663     1      1       8
//	reddit graph, 602 ms   25.3  23.8  23.6  24.2  26.3  30.3  32.0     3      1      65
//	reddit graph, 300 ms   10.6  11.1  12.2  12.7  13.5  14.0     -     1      1      32
//
// One more chunk walks every adjacency list again and makes one more
// gather call per vertex: where every slab fits the cache it costs
// ~80 ns a vertex (45 at d ≈ 8, 90 at d ≈ 26). A slab byte beyond the
// cache costs ~0.08 ns. Only their ratio decides a count, so the
// per-chunk cost is stated in bytes of slab traffic: ~1 KiB a vertex.
// Any ratio from 0.7 to 1.5 KiB picks within 7.5% of the best measured
// q on every shape and width measured; the reddit graph at f = 602 is
// that 7.5%, because the model has no term that makes 2–4 chunks beat
// 1 there.
const (
	cacheBytes       = 2 << 20 // the fast memory a chunk's source slab should fit: the per-core L2
	chunkVertexBytes = 1 << 10 // the fixed cost of a chunk, per vertex, in bytes of slab traffic
)

// Chunks returns the column-chunk count Propagate should run an
// n-vertex graph of average degree avgDeg with f columns at: the q in
// [1, the panel cap] that minimizes
//
//	q·n·chunkVertexBytes + Σ over chunks of max(0, 8·n·width − cacheBytes)
//
// — a fixed cost per chunk, plus the bytes of each chunk's n × width
// source slab that do not fit the cache. It is Theorem 2's question
// (how finely to cut the features) priced against the machine instead
// of against DRAM traffic alone: the paper's Q = 13 on the train_prop
// subgraph is 1.4–1.7× slower than the q = 2 this returns. q chunks
// save at most (q−1)·cacheBytes of traffic against one, so past
// cacheBytes/chunkVertexBytes = 2048 vertices (the whole-graph Evaluate
// and Infer passes) the count is 1; and a graph with no edges reads no
// source row, so it is one chunk too. The count never reaches a
// result: it only re-chunks columns.
func Chunks(n int, avgDeg float64, f int) int {
	if n <= 0 || avgDeg <= 0 {
		return 1
	}
	best, bestCost := 1, math.MaxInt
	for q := 1; q <= colChunks(f, f); q++ {
		cost := q * n * chunkVertexBytes
		if cost >= bestCost {
			break // the fixed term alone already loses, and it only grows
		}
		for i := 0; i < q; i++ {
			lo, hi := chunkCols(f, q, i)
			cost += max(0, 8*n*(hi-lo)-cacheBytes)
		}
		if cost < bestCost {
			best, bestCost = q, cost
		}
	}
	return best
}

// FeasibleTheorem2 reports whether the preconditions of Theorem 2
// hold: C <= 4f/d and 2·n·d <= S_cache.
func (m CommModel) FeasibleTheorem2() bool {
	if m.AvgDeg <= 0 {
		return true
	}
	if float64(m.Cores) > 4*float64(m.F)/m.AvgDeg {
		return false
	}
	return 2*float64(m.N)*m.AvgDeg <= float64(m.CacheBytes)
}

// ApproxRatio returns gcomm(1, OptimalQ) / LowerBound; Theorem 2
// guarantees this is at most 2 whenever FeasibleTheorem2 holds.
func (m CommModel) ApproxRatio() float64 {
	lb := m.LowerBound()
	if lb == 0 {
		return 1
	}
	return m.Volume(1, m.OptimalQ(), 1) / lb
}

// GammaP measures the replication factor γP of partitioning g's
// vertices into p contiguous ranges: the mean over partitions of
// |V_src^(i)| / |V|, where V_src^(i) is the set of vertices sending
// features into partition i (including its own members, because of
// the self-connection noted in Section V-B).
func GammaP(g *graph.CSR, p int) float64 {
	if g.N == 0 || p < 1 {
		return 0
	}
	if p > g.N {
		p = g.N
	}
	mark := make([]int, g.N) // last partition that counted vertex v, minus one
	for i := range mark {
		mark[i] = -1
	}
	var total float64
	for i := 0; i < p; i++ {
		vlo := i * g.N / p
		vhi := (i + 1) * g.N / p
		count := 0
		for v := vlo; v < vhi; v++ {
			if mark[v] != i {
				mark[v] = i
				count++ // self-connection: v in V_src
			}
			for _, u := range g.Neighbors(int32(v)) {
				if mark[u] != i {
					mark[u] = i
					count++
				}
			}
		}
		total += float64(count)
	}
	return total / (float64(p) * float64(g.N))
}

// BestVolume exhaustively minimizes gcomm over P·Q >= Cores with the
// cache constraint, measuring γP on the given graph. It is used by
// the Theorem 2 ablation to compare the feature-only solution against
// the true optimum. Complexity O(maxP · E), so call on subgraphs.
func (m CommModel) BestVolume(g *graph.CSR, maxP int) (bestP, bestQ int, best float64) {
	if maxP < 1 {
		maxP = 1
	}
	best = -1
	for p := 1; p <= maxP; p++ {
		gamma := GammaP(g, p)
		// Smallest Q satisfying both constraints, by OptimalQ's rule:
		// at P = 1 (γ = 1) it is OptimalQ.
		q := m.clampQ(max((m.Cores+p-1)/p, m.cacheQ(8*float64(m.N)*gamma*float64(m.F))))
		v := m.Volume(p, q, gamma)
		if best < 0 || v < best {
			best, bestP, bestQ = v, p, q
		}
	}
	return bestP, bestQ, best
}
