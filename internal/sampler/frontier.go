package sampler

import (
	"fmt"

	"gsgcn/internal/graph"
	"gsgcn/internal/rng"
)

// Frontier configures the frontier sampling algorithm (Algorithm 2).
// The sampler maintains a frontier set of M vertices; at each step it
// pops a vertex with probability proportional to its degree, replaces
// it with a uniformly random neighbor, and adds the popped vertex to
// the sample, until N vertices (counting the initial frontier) have
// been emitted.
type Frontier struct {
	G *graph.CSR
	// M is the frontier size; the paper reports m = 1000 as a good
	// empirical value (Section IV-A).
	M int
	// N is the vertex budget n of the sampled subgraph.
	N int
	// Eta is the Dashboard enlargement factor η > 1 (Section IV-B).
	// Zero selects the default 2.
	Eta float64
	// DegCap, when positive, caps the number of Dashboard entries a
	// vertex receives regardless of its true degree. The paper uses
	// 30 for the highly skewed Amazon graph to stop hub vertices from
	// dominating every subgraph (Section VI-C2).
	DegCap int
}

const invalid = int32(-1)

// Stats records the operation counts of one sampling run; the Fig. 4B
// harness uses them to derive the lane-parallel (vectorized) speedup,
// and tests use them to validate Theorem 1's cost model.
type Stats struct {
	Pops        int   // number of frontier pops (n - m)
	Probes      int   // random probes into the Dashboard, incl. rejected
	Cleanups    int   // Dashboard compactions
	Written     int64 // Dashboard entries written (init + appends + cleanup moves)
	Invalidated int64 // Dashboard entries invalidated by pops
	// BlockLens[L] counts block operations (invalidate or append) of
	// length L; Σ ceil(L/p) over this histogram is the lane-parallel
	// memory cost at width p.
	BlockLens map[int]int64
}

// LaneRounds returns Σ_ops ceil(L/p): the number of lane-parallel
// memory rounds needed at lane width p. LaneRounds(1) equals the
// total scalar entry operations.
func (s *Stats) LaneRounds(p int) int64 {
	if p < 1 {
		p = 1
	}
	var rounds int64
	for l, c := range s.BlockLens {
		rounds += int64((l+p-1)/p) * c
	}
	return rounds
}

// LaneSpeedup returns the simulated speedup of executing all block
// memory operations with p lanes instead of 1 (the Fig. 4B "gain by
// AVX" metric). Probing work is unaffected by lanes: one probe per
// round regardless, so it is excluded here and accounted separately
// by the harness.
func (s *Stats) LaneSpeedup(p int) float64 {
	r := s.LaneRounds(p)
	if r == 0 {
		return 1
	}
	return float64(s.LaneRounds(1)) / float64(r)
}

// entries returns the number of Dashboard entries vertex v occupies:
// its degree, clamped to [1, DegCap]. Degree-0 vertices get one entry
// so they remain poppable (the paper leaves this case unspecified).
func (f *Frontier) entries(v int32) int {
	d := f.G.Degree(v)
	if d < 1 {
		d = 1
	}
	if f.DegCap > 0 && d > f.DegCap {
		d = f.DegCap
	}
	return d
}

// Name implements VertexSampler.
func (f *Frontier) Name() string { return "frontier-dashboard" }

// SampleVertices implements VertexSampler using the Dashboard.
func (f *Frontier) SampleVertices(r *rng.RNG) []int32 {
	return f.sample(r, nil)
}

// SampleVerticesStats runs the Dashboard-based frontier sampler
// (Algorithm 3) and returns the sampled vertex multiset plus
// operation statistics. The vertex multiset is SampleVertices' for
// the same RNG state.
func (f *Frontier) SampleVerticesStats(r *rng.RNG) ([]int32, *Stats) {
	stats := &Stats{BlockLens: make(map[int]int64)}
	return f.sample(r, stats), stats
}

// dashboard is the paper's DB/IA pair held implicitly. DB's used
// prefix is a run of blocks laid end to end, live and dead, in the
// order they were appended, as the paper's DB holds them; here a block
// is one record — its first entry and its vertex, invalid once popped,
// its length the distance to the next block's start — instead of a
// vertex, an offset and an IA index in each of its entries. An entry's
// block is the last one starting at or before it, found by binary
// search over the starts, so popping a block costs O(1) where the
// explicit DB wrote each of its deg(v) entries. capacity is the DB's
// length: cleanup and growth happen exactly when they happen in the
// explicit structure, and so the RNG draws, the vertex lists and every
// Stats counter are the explicit structure's.
type dashboard struct {
	start []int32 // ascending, start[0] = 0
	vert  []int32 // the block's vertex, or invalid once popped

	used     int // first free DB slot
	capacity int // DB length
}

// appendBlock adds a block of n entries for vertex v. The caller
// guarantees capacity.
func (db *dashboard) appendBlock(v int32, n int) {
	db.start = append(db.start, int32(db.used))
	db.vert = append(db.vert, v)
	db.used += n
}

// blockLen returns the number of entries of block b.
func (db *dashboard) blockLen(b int) int {
	end := db.used
	if b+1 < len(db.start) {
		end = int(db.start[b+1])
	}
	return end - int(db.start[b])
}

// find returns the block holding DB entry idx < used.
func (db *dashboard) find(idx int32) int {
	s, b := db.start, 0
	for n := len(s); n > 1; {
		half := n >> 1
		if s[b+half] <= idx {
			b += half
		}
		n -= half
	}
	return b
}

// cleanup compacts the live blocks to the front of the DB, in order
// (Algorithm 4, PARDO_CLEANUP), and returns the number of entries
// moved.
func (db *dashboard) cleanup() int64 {
	w, k := 0, 0
	for b, v := range db.vert {
		if v == invalid {
			continue
		}
		n := db.blockLen(b)
		db.start[k], db.vert[k] = int32(w), v
		w += n
		k++
	}
	db.start, db.vert = db.start[:k], db.vert[:k]
	db.used = w
	return int64(w)
}

// grow is the safety valve beyond the paper's fixed η·m·d̄ sizing,
// needed when hubs exceed the average-degree estimate: the DB doubles,
// or grows to twice need if doubling falls short of it.
func (db *dashboard) grow(need int) {
	db.capacity *= 2
	if db.capacity < need {
		db.capacity = need * 2
	}
}

// sample is the one Dashboard sampler (Algorithm 3). stats, when not
// nil, receives the operation counts; the draws do not depend on it.
func (f *Frontier) sample(r *rng.RNG, stats *Stats) []int32 {
	g := f.G
	if g.NumVertices() == 0 {
		return nil
	}
	m := f.M
	if m > g.NumVertices() {
		m = g.NumVertices()
	}
	if m < 1 {
		m = 1
	}
	n := f.N
	if n < m {
		n = m
	}
	eta := f.Eta
	if eta <= 1 {
		eta = 2
	}

	// Capacity η·m·d̄ where d̄ is the (capped) average degree estimate
	// (Algorithm 3 lines 1-2). Grown on demand if a burst of hubs
	// lands in the frontier. There are never more blocks than the n
	// vertices emitted: m initial ones and one per pop.
	dbar := g.AvgDegree()
	if f.DegCap > 0 && dbar > float64(f.DegCap) {
		dbar = float64(f.DegCap)
	}
	if dbar < 1 {
		dbar = 1
	}
	db := dashboard{
		start:    make([]int32, 0, n),
		vert:     make([]int32, 0, n),
		capacity: int(eta * float64(m) * dbar),
	}
	var probes, cleanups int
	var written, invalidated int64

	// Initial frontier: m distinct vertices uniformly at random.
	vsub := make([]int32, 0, n)
	for _, v := range r.Sample(g.NumVertices(), m) {
		vv := int32(v)
		e := f.entries(vv)
		if db.used+e > db.capacity {
			db.grow(db.used + e)
		}
		db.appendBlock(vv, e)
		written += int64(e)
		if stats != nil {
			stats.BlockLens[e]++
		}
		vsub = append(vsub, vv)
	}

	for len(vsub) < n {
		// Pop: rejection-probe the used prefix of the DB; entry
		// counts are proportional to (capped) degree, so the hit
		// distribution matches Algorithm 2 line 4.
		var b int
		for {
			probes++
			b = db.find(int32(r.Intn(db.used)))
			if db.vert[b] != invalid {
				break
			}
		}
		vpop := db.vert[b]
		db.vert[b] = invalid
		vsub = append(vsub, vpop)
		if stats != nil {
			blockLen := db.blockLen(b)
			invalidated += int64(blockLen)
			stats.BlockLens[blockLen]++
		}

		// Replace with a uniformly random neighbor (Algorithm 2 line
		// 5); isolated vertices fall back to a uniform vertex so the
		// frontier never shrinks.
		var vnew int32
		if d := g.Degree(vpop); d > 0 {
			vnew = g.Neighbor(vpop, r.Intn(d))
		} else {
			vnew = int32(r.Intn(g.NumVertices()))
		}
		e := f.entries(vnew)
		if db.used+e > db.capacity {
			// Dashboard full (Algorithm 3 line 20): compact.
			written += db.cleanup()
			cleanups++
			if db.used+e > db.capacity {
				db.grow(db.used + e)
			}
		}
		db.appendBlock(vnew, e)
		written += int64(e)
		if stats != nil {
			stats.BlockLens[e]++
		}
	}
	if stats != nil {
		stats.Pops = n - m
		stats.Probes, stats.Cleanups = probes, cleanups
		stats.Written, stats.Invalidated = written, invalidated
	}
	return vsub
}

// NaiveFrontier is the straightforward O(m) -per-pop implementation
// of Algorithm 2 used as the correctness and performance baseline
// ("a straightforward implementation requires O(m·n) work",
// Section IV-A). It maintains the frontier as a plain slice and
// recomputes the cumulative degree distribution on every pop.
type NaiveFrontier struct {
	G      *graph.CSR
	M, N   int
	DegCap int
}

// Name implements VertexSampler.
func (f *NaiveFrontier) Name() string { return "frontier-naive" }

// SampleVertices implements VertexSampler.
func (f *NaiveFrontier) SampleVertices(r *rng.RNG) []int32 {
	g := f.G
	if g.NumVertices() == 0 {
		return nil
	}
	m := f.M
	if m > g.NumVertices() {
		m = g.NumVertices()
	}
	if m < 1 {
		m = 1
	}
	n := f.N
	if n < m {
		n = m
	}
	weight := func(v int32) float64 {
		d := g.Degree(v)
		if d < 1 {
			d = 1
		}
		if f.DegCap > 0 && d > f.DegCap {
			d = f.DegCap
		}
		return float64(d)
	}

	fs := make([]int32, 0, m)
	for _, v := range r.Sample(g.NumVertices(), m) {
		fs = append(fs, int32(v))
	}
	vsub := make([]int32, 0, n)
	vsub = append(vsub, fs...)
	for len(vsub) < n {
		total := 0.0
		for _, v := range fs {
			total += weight(v)
		}
		x := r.Float64() * total
		sel := 0
		for i, v := range fs {
			x -= weight(v)
			if x < 0 {
				sel = i
				break
			}
		}
		vpop := fs[sel]
		vsub = append(vsub, vpop)
		var vnew int32
		if d := g.Degree(vpop); d > 0 {
			vnew = g.Neighbor(vpop, r.Intn(d))
		} else {
			vnew = int32(r.Intn(g.NumVertices()))
		}
		fs[sel] = vnew
	}
	return vsub
}

// TheoreticalSpeedupBound returns the Theorem 1 guarantee: for a
// given epsilon, the sampler scales at least p/(1+eps) for all
// p <= eps*d*(4 + 3/(eta-1)) - eta.
func TheoreticalSpeedupBound(eps, d, eta float64) (maxP float64) {
	if eta <= 1 {
		panic(fmt.Sprintf("sampler: eta must exceed 1, got %v", eta))
	}
	return eps*d*(4+3/(eta-1)) - eta
}
