package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"gsgcn/internal/rng"
)

// path5 is the path graph 0-1-2-3-4.
func path5(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := path5(t)
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got V=%d E=%d, want 5,4", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Errorf("degrees wrong: deg(0)=%d deg(2)=%d", g.Degree(0), g.Degree(2))
	}
	nb := g.Neighbors(2)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("Neighbors(2) = %v", nb)
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (dups and self-loops removed)", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("deg(2) = %d, want 0", g.Degree(2))
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("expected error for negative endpoint")
	}
}

func TestHasEdge(t *testing.T) {
	g := path5(t)
	cases := []struct {
		u, v int32
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 2, false}, {3, 4, true}, {4, 0, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestSymmetry(t *testing.T) {
	g := randomGraph(t, 200, 800, 42)
	for v := int32(0); v < int32(g.N); v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(w, v) {
				t.Fatalf("edge (%d,%d) present but (%d,%d) missing", v, w, w, v)
			}
		}
	}
}

func TestAvgAndMaxDegree(t *testing.T) {
	g := path5(t)
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Errorf("AvgDegree = %v, want 1.6", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %d, want 2", got)
	}
}

func TestInduceBasic(t *testing.T) {
	g := path5(t)
	sub := g.Induce([]int32{1, 2, 4})
	if sub.N != 3 {
		t.Fatalf("induced N = %d, want 3", sub.N)
	}
	// Local ids: 0->1, 1->2, 2->4. Edge (1,2) survives; 4 isolated.
	if !sub.HasEdge(0, 1) {
		t.Error("edge between local 0 and 1 missing")
	}
	if sub.Degree(2) != 0 {
		t.Error("vertex 4 should be isolated in the induced subgraph")
	}
	want := []int32{1, 2, 4}
	for i, v := range want {
		if sub.Orig[i] != v {
			t.Fatalf("Orig = %v, want %v", sub.Orig, want)
		}
	}
}

func TestInduceDuplicatesIgnored(t *testing.T) {
	g := path5(t)
	sub := g.Induce([]int32{2, 2, 3, 3, 3})
	if sub.N != 2 {
		t.Fatalf("induced N = %d, want 2", sub.N)
	}
	if !sub.HasEdge(0, 1) {
		t.Error("edge (2,3) missing from induced subgraph")
	}
}

func TestInduceWholeGraph(t *testing.T) {
	g := randomGraph(t, 50, 120, 7)
	all := make([]int32, g.N)
	for i := range all {
		all[i] = int32(i)
	}
	sub := g.Induce(all)
	if sub.NumEdges() != g.NumEdges() {
		t.Errorf("whole-graph induce lost edges: %d vs %d", sub.NumEdges(), g.NumEdges())
	}
}

// induceByMap is Induce as it was written first: sort, deduplicate,
// then a map from parent id to local id.
func induceByMap(g *CSR, vs []int32) *Subgraph {
	seen := map[int32]bool{}
	var uniq []int32
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	slices.Sort(uniq)
	local := make(map[int32]int32, len(uniq))
	for i, v := range uniq {
		local[v] = int32(i)
	}
	rowPtr := make([]int64, len(uniq)+1)
	var col []int32
	for i, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if lw, ok := local[w]; ok {
				col = append(col, lw)
			}
		}
		rowPtr[i+1] = int64(len(col))
	}
	return &Subgraph{CSR: &CSR{N: len(uniq), RowPtr: rowPtr, ColIdx: col}, Orig: uniq}
}

// TestInduceMatchesMapVersion: the bitmap-and-rank lookup and the
// branch-free walk give the map's subgraph exactly, on unsorted vertex
// multisets with duplicates at every density, on graphs whose size is
// and is not a multiple of the bitmap's word, with the first and last
// vertex (the ends of the bitmap) in the set, and on graphs where every
// even vertex, 0 among them, is isolated.
func TestInduceMatchesMapVersion(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 517} {
		r := rng.New(uint64(1000 + n))
		var odd []Edge
		for i := 0; n > 1 && i < 3*n; i++ {
			odd = append(odd, Edge{int32(r.Intn(n/2)*2 + 1), int32(r.Intn(n/2)*2 + 1)})
		}
		isolated, err := FromEdges(n, odd)
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range []*CSR{randomGraph(t, n, 6*n, uint64(n)), isolated} {
			for _, k := range []int{0, 1, n / 3, n, 3 * n} {
				vs := make([]int32, k, k+2)
				for i := range vs {
					vs[i] = int32(r.Intn(n))
				}
				if k > 1 {
					vs = append(vs, 0, int32(n-1))
				}
				got, want := g.Induce(vs), induceByMap(g, vs)
				if got.N != want.N || !slices.Equal(got.Orig, want.Orig) ||
					!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
					t.Fatalf("graph %d n=%d k=%d: Induce differs from the map version:\n got %+v %v\nwant %+v %v",
						gi, n, k, got.CSR, got.Orig, want.CSR, want.Orig)
				}
			}
		}
	}
}

func TestInduceEdgeSubsetProperty(t *testing.T) {
	// Property: every induced edge maps to an original edge, and every
	// original edge with both endpoints sampled appears induced.
	g := randomGraph(t, 120, 500, 99)
	r := rng.New(123)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		k := rr.Intn(60) + 2
		vs := make([]int32, k)
		for i := range vs {
			vs[i] = int32(r.Intn(g.N))
		}
		sub := g.Induce(vs)
		for li := int32(0); li < int32(sub.N); li++ {
			for _, lj := range sub.Neighbors(li) {
				if !g.HasEdge(sub.Orig[li], sub.Orig[lj]) {
					return false
				}
			}
		}
		inSet := map[int32]int32{}
		for i, v := range sub.Orig {
			inSet[v] = int32(i)
		}
		for _, v := range sub.Orig {
			for _, w := range g.Neighbors(v) {
				if lw, ok := inSet[w]; ok {
					if !sub.HasEdge(inSet[v], lw) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles plus an isolated vertex.
	g, err := FromEdges(7, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	labels, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] {
		t.Error("triangle 0-1-2 split across components")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Error("triangle 3-4-5 mislabeled")
	}
	if labels[6] == labels[0] || labels[6] == labels[3] {
		t.Error("isolated vertex joined a triangle")
	}
}

func TestLargestComponentFraction(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.LargestComponentFraction(); got != 0.75 {
		t.Errorf("LCC fraction = %v, want 0.75", got)
	}
}

// TestPathDegreesAndNeighbors: a path's two endpoints have degree 1
// and its three inner vertices degree 2; Neighbor(v, i) is entry i of
// Neighbors(v), and each of the four edges is stored as two arcs.
func TestPathDegreesAndNeighbors(t *testing.T) {
	g := path5(t)
	for v, want := range []int{1, 2, 2, 2, 1} {
		if got := g.Degree(int32(v)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
		for i, u := range g.Neighbors(int32(v)) {
			if got := g.Neighbor(int32(v), i); got != u {
				t.Errorf("Neighbor(%d, %d) = %d, want %d", v, i, got, u)
			}
		}
	}
	if got := g.NumDirectedEdges(); got != 2*g.NumEdges() || got != 8 {
		t.Errorf("NumDirectedEdges = %d, want 8", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := path5(t)
	s := g.ComputeStats(true)
	if s.Vertices != 5 || s.Edges != 4 || s.Components != 1 || s.LCCFrac != 1 {
		t.Errorf("stats = %+v", s)
	}
	s2 := g.ComputeStats(false)
	if s2.Components != 0 {
		t.Errorf("partial stats should skip components, got %+v", s2)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph stats wrong")
	}
	if g.LargestComponentFraction() != 0 {
		t.Error("empty graph LCC should be 0")
	}
}

// randomGraph builds an Erdos-Renyi-ish multigraph for tests.
func randomGraph(t *testing.T, n, m int, seed uint64) *CSR {
	t.Helper()
	r := rng.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func BenchmarkInduce(b *testing.B) {
	r := rng.New(5)
	edges := make([]Edge, 50000)
	for i := range edges {
		edges[i] = Edge{int32(r.Intn(10000)), int32(r.Intn(10000))}
	}
	g, err := FromEdges(10000, edges)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]int32, 1000)
	for i := range vs {
		vs[i] = int32(r.Intn(10000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Induce(vs)
	}
}

// starLike builds a star graph with n leaves.
func starLike(t *testing.T, n int) *CSR {
	t.Helper()
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{U: 0, V: int32(i + 1)}
	}
	g, err := FromEdges(n+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
