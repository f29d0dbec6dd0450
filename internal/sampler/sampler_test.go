package sampler

import (
	"math"
	"testing"
	"time"

	"gsgcn/internal/graph"
	"gsgcn/internal/rng"
)

func TestRandomNodeBudgetAndRange(t *testing.T) {
	g := testGraph(t)
	s := &RandomNode{G: g, Budget: 300}
	vs := s.SampleVertices(rng.New(1))
	if len(vs) != 300 {
		t.Fatalf("got %d vertices, want 300", len(vs))
	}
	seen := map[int32]bool{}
	for _, v := range vs {
		if v < 0 || int(v) >= g.NumVertices() || seen[v] {
			t.Fatalf("invalid or duplicate vertex %d", v)
		}
		seen[v] = true
	}
}

func TestRandomNodeBudgetExceedsGraph(t *testing.T) {
	g, _ := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}})
	s := &RandomNode{G: g, Budget: 50}
	if got := len(s.SampleVertices(rng.New(2))); got != 5 {
		t.Fatalf("got %d, want clamped 5", got)
	}
}

func TestRandomEdgeEndpointsAreEdges(t *testing.T) {
	g := testGraph(t)
	s := &RandomEdge{G: g, Budget: 200}
	vs := s.SampleVertices(rng.New(3))
	if len(vs) != 200 {
		t.Fatalf("got %d vertices, want 200", len(vs))
	}
	// Consecutive pairs (2i, 2i+1) are edge endpoints.
	for i := 0; i+1 < len(vs); i += 2 {
		if !g.HasEdge(vs[i], vs[i+1]) {
			t.Fatalf("pair (%d,%d) is not an edge", vs[i], vs[i+1])
		}
	}
}

func TestRandomEdgeDegreeBias(t *testing.T) {
	// On a star graph, nearly half the sampled endpoints must be the hub.
	g := starGraph(t, 400)
	s := &RandomEdge{G: g, Budget: 1000}
	vs := s.SampleVertices(rng.New(4))
	hub := 0
	for _, v := range vs {
		if v == 0 {
			hub++
		}
	}
	if hub < 400 {
		t.Errorf("hub sampled %d/1000 times, want ~500", hub)
	}
}

func TestRandomEdgeEmptyGraphFallsBack(t *testing.T) {
	g, _ := graph.FromEdges(10, nil)
	s := &RandomEdge{G: g, Budget: 5}
	if got := len(s.SampleVertices(rng.New(5))); got != 5 {
		t.Fatalf("got %d vertices from edgeless graph, want 5 via fallback", got)
	}
}

func TestVertexOfArc(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < int(g.NumDirectedEdges()); a++ {
		u := vertexOfArc(g, a)
		if int64(a) < g.RowPtr[u] || int64(a) >= g.RowPtr[u+1] {
			t.Fatalf("arc %d attributed to vertex %d with range [%d,%d)", a, u, g.RowPtr[u], g.RowPtr[u+1])
		}
	}
}

func TestRandomWalkVisitsAreWalks(t *testing.T) {
	g := testGraph(t)
	s := &RandomWalk{G: g, Walkers: 10, Depth: 20}
	vs := s.SampleVertices(rng.New(6))
	if len(vs) == 0 || len(vs) > 10*21 {
		t.Fatalf("walk sample size %d out of range", len(vs))
	}
}

func TestRandomWalkStopsAtDeadEnd(t *testing.T) {
	// Two vertices, one edge, plus isolated vertex 2: walks from 2
	// terminate immediately.
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	s := &RandomWalk{G: g, Walkers: 5, Depth: 10}
	vs := s.SampleVertices(rng.New(7))
	if len(vs) == 0 {
		t.Fatal("no vertices sampled")
	}
}

func TestForestFireBudget(t *testing.T) {
	g := testGraph(t)
	s := &ForestFire{G: g, Budget: 250, BurnProb: 0.4}
	vs := s.SampleVertices(rng.New(8))
	if len(vs) != 250 {
		t.Fatalf("burned %d vertices, want 250", len(vs))
	}
	seen := map[int32]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Fatalf("vertex %d burned twice", v)
		}
		seen[v] = true
	}
}

// TestForestFireBudgetExceedsGraph: a budget above |V| burns every
// vertex once and returns. Before the clamp, the loop re-rolled a root
// it could never emit, forever; the test runs the sampler on its own
// goroutine so that a regression fails by the deadline, not by hanging
// the suite.
func TestForestFireBudgetExceedsGraph(t *testing.T) {
	edges := make([]graph.Edge, 9)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []int32, 1)
	go func() { done <- (&ForestFire{G: g, Budget: 11}).SampleVertices(rng.New(10)) }()
	select {
	case vs := <-done:
		seen := map[int32]bool{}
		for _, v := range vs {
			seen[v] = true
		}
		if len(vs) != 10 || len(seen) != 10 {
			t.Fatalf("burned %v, want each of the 10 vertices once", vs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForestFire with Budget > |V| did not return within 5 s")
	}
}

func TestForestFireDefaultProb(t *testing.T) {
	g := testGraph(t)
	s := &ForestFire{G: g, Budget: 100} // zero prob -> default
	if got := len(s.SampleVertices(rng.New(9))); got != 100 {
		t.Fatalf("got %d, want 100", got)
	}
}

func TestSamplerNames(t *testing.T) {
	g := testGraph(t)
	for _, s := range []VertexSampler{
		&Frontier{G: g, M: 10, N: 20},
		&NaiveFrontier{G: g, M: 10, N: 20},
		&RandomNode{G: g, Budget: 10},
		&RandomEdge{G: g, Budget: 10},
		&RandomWalk{G: g, Walkers: 2, Depth: 3},
		&ForestFire{G: g, Budget: 10},
	} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func TestSampleSubgraphInduces(t *testing.T) {
	g := testGraph(t)
	sub := SampleSubgraph(g, &Frontier{G: g, M: 50, N: 400}, rng.New(10))
	if sub.N == 0 || sub.N > 400 {
		t.Fatalf("subgraph has %d vertices, want (0,400]", sub.N)
	}
	// Orig must map into the parent graph.
	for _, v := range sub.Orig {
		if v < 0 || int(v) >= g.NumVertices() {
			t.Fatalf("orig vertex %d out of range", v)
		}
	}
}

func TestPoolRefillAndNext(t *testing.T) {
	g := testGraph(t)
	p := NewPool(g, &Frontier{G: g, M: 30, N: 150}, 4, 99)
	if p.Pending() != 0 {
		t.Fatal("new pool should be empty before first Next")
	}
	// Draw several waves' worth; the async pipeline must keep
	// producing non-empty subgraphs while staying self-limiting.
	draws := 4 * p.PInter
	for i := 0; i < draws; i++ {
		sub := p.Next()
		if sub == nil || sub.N == 0 {
			t.Fatalf("Next %d returned empty subgraph", i)
		}
	}
	// Bounded-prefetch invariant, checked at the accounting level (a
	// full channel would mask over-launching from Pending): the work
	// ever launched may exceed the work consumed only by the pipeline
	// depth, and buffer credits can never go negative.
	p.mu.Lock()
	launched := p.nextWave * p.PInter
	credits := p.credits
	p.mu.Unlock()
	if bound := draws + pipelineWaves*p.PInter; launched > bound {
		t.Fatalf("launched %d subgraphs after consuming %d; pipeline bound is %d", launched, draws, bound)
	}
	if credits < 0 {
		t.Fatalf("buffer credits went negative: %d", credits)
	}
}

// TestPoolPrefetchOverlap checks that the pipeline works ahead: after
// the consumer drains one subgraph and sampling is given time to run,
// buffered subgraphs accumulate without further Next calls.
func TestPoolPrefetchOverlap(t *testing.T) {
	g := testGraph(t)
	p := NewPool(g, &Frontier{G: g, M: 30, N: 150}, 4, 99)
	p.Next()
	deadline := time.Now().Add(5 * time.Second)
	for p.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prefetcher buffered nothing within 5s of first Next")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	g := testGraph(t)
	collect := func(workers int) [][]int32 {
		p := NewPool(g, &Frontier{G: g, M: 30, N: 150}, 4, 7)
		p.Workers = workers
		var out [][]int32
		for i := 0; i < 8; i++ {
			out = append(out, p.Next().Orig)
		}
		return out
	}
	a, b := collect(1), collect(4)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("batch %d sizes differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("batch %d differs at %d", i, j)
			}
		}
	}
}

func TestPoolSubgraphsIndependent(t *testing.T) {
	g := testGraph(t)
	p := NewPool(g, &Frontier{G: g, M: 30, N: 150}, 4, 1)
	a, b := p.Next(), p.Next()
	same := a.N == b.N
	if same {
		for i := range a.Orig {
			if a.Orig[i] != b.Orig[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two pooled subgraphs are identical; RNG streams not independent")
	}
}

func BenchmarkPoolRefill(b *testing.B) {
	g := testGraph(b)
	p := NewPool(g, &Frontier{G: g, M: 100, N: 500}, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One wave's worth of draws forces at least one background
		// wave to be sampled per iteration.
		for j := 0; j < p.PInter; j++ {
			p.Next()
		}
	}
}

func TestNode2VecWalkBudgetAndValidity(t *testing.T) {
	g := testGraph(t)
	s := &Node2VecWalk{G: g, Walkers: 10, Depth: 15, P: 0.5, Q: 2}
	vs := s.SampleVertices(rng.New(20))
	if len(vs) == 0 || len(vs) > 10*16 {
		t.Fatalf("sampled %d vertices", len(vs))
	}
	for _, v := range vs {
		if v < 0 || int(v) >= g.NumVertices() {
			t.Fatalf("vertex %d out of range", v)
		}
	}
}

func TestNode2VecBiasEffect(t *testing.T) {
	// Small Q (outward bias) should visit more distinct vertices than
	// small P (return bias) on the same budget.
	g := testGraph(t)
	distinct := func(p, q float64) int {
		s := &Node2VecWalk{G: g, Walkers: 30, Depth: 30, P: p, Q: q}
		seen := map[int32]bool{}
		for i := 0; i < 5; i++ {
			for _, v := range s.SampleVertices(rng.NewStream(21, i)) {
				seen[v] = true
			}
		}
		return len(seen)
	}
	outward := distinct(4, 0.25)
	returning := distinct(0.25, 4)
	if outward <= returning {
		t.Errorf("outward bias visited %d distinct vs %d for return bias", outward, returning)
	}
}

func TestNode2VecDefaultsUnbiased(t *testing.T) {
	g := testGraph(t)
	s := &Node2VecWalk{G: g, Walkers: 5, Depth: 10} // P=Q=0 -> 1
	if got := len(s.SampleVertices(rng.New(22))); got == 0 {
		t.Fatal("no vertices sampled")
	}
}

func TestEdgeInducedSampler(t *testing.T) {
	g := testGraph(t)
	s := &EdgeInduced{G: g, Edges: 100}
	vs := s.SampleVertices(rng.New(23))
	if len(vs) != 200 {
		t.Fatalf("sampled %d endpoints, want 200", len(vs))
	}
	for i := 0; i+1 < len(vs); i += 2 {
		if !g.HasEdge(vs[i], vs[i+1]) {
			t.Fatalf("pair (%d,%d) is not an edge", vs[i], vs[i+1])
		}
	}
}

func TestEdgeInducedEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdges(5, nil)
	s := &EdgeInduced{G: g, Edges: 3}
	if got := len(s.SampleVertices(rng.New(24))); got != 3 {
		t.Fatalf("fallback sampled %d, want 3", got)
	}
}

func TestFrontierPreservesDegreeDistribution(t *testing.T) {
	// Section III-C: frontier subgraphs should be closer to the
	// parent's degree distribution than uniform node samples.
	g := testGraph(t)
	r := rng.New(25)
	fr := SampleSubgraph(g, &Frontier{G: g, M: 60, N: 600}, r)
	rn := SampleSubgraph(g, &RandomNode{G: g, Budget: 600}, r)
	if f, u := fr.LargestComponentFraction(), rn.LargestComponentFraction(); f <= u {
		t.Errorf("frontier LCC %.3f <= random %.3f", f, u)
	}
	if ks := degreeKS(g, fr.CSR); ks <= 0 || ks >= 1 {
		t.Errorf("frontier KS %.3f out of (0,1)", ks)
	}
}

func TestDegreeKSIdentical(t *testing.T) {
	g := testGraph(t)
	if ks := degreeKS(g, g); ks != 0 {
		t.Errorf("KS(g, g) = %v, want 0", ks)
	}
}

func TestDegreeKSDiscriminates(t *testing.T) {
	// A star and a cycle of the same size have very different degree
	// distributions: 50 of the star's 51 vertices have degree 1, every
	// cycle vertex degree 2.
	star := starGraph(t, 50)
	ring := make([]graph.Edge, 51)
	for i := range ring {
		ring[i] = graph.Edge{U: int32(i), V: int32((i + 1) % 51)}
	}
	cyc, err := graph.FromEdges(51, ring)
	if err != nil {
		t.Fatal(err)
	}
	if ks := degreeKS(star, cyc); ks < 0.5 || ks > 1 {
		t.Errorf("KS(star, cycle) = %v, want in [0.5, 1]", ks)
	}
	if a, b := degreeKS(star, cyc), degreeKS(cyc, star); a != b {
		t.Errorf("KS not symmetric: %v vs %v", a, b)
	}
}

// degreeKS returns the Kolmogorov-Smirnov distance between the degree
// distributions of g and h, two non-empty graphs — one of the
// "connectivity measures" a good graph sampler should preserve
// (Section III-C; Ribeiro & Towsley evaluate frontier sampling with
// this family of statistics). 0 means identical distributions, 1
// maximal divergence.
func degreeKS(g, h *graph.CSR) float64 {
	maxDeg := max(g.MaxDegree(), h.MaxDegree())
	cdf := func(x *graph.CSR) []float64 {
		counts := make([]float64, maxDeg+2)
		for v := int32(0); v < int32(x.N); v++ {
			counts[x.Degree(v)]++
		}
		run := 0.0
		for i := range counts {
			run += counts[i]
			counts[i] = run / float64(x.N)
		}
		return counts
	}
	cg, ch := cdf(g), cdf(h)
	ks := 0.0
	for i := range cg {
		ks = max(ks, math.Abs(cg[i]-ch[i]))
	}
	return ks
}
