package ann

import (
	"math"
	"sort"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// randTable builds a seeded embedding table: a Gaussian mixture of
// clusters (the shape trained GCN embeddings take) with per-vertex
// noise, plus its norms.
func randTable(n, dim, clusters int, seed uint64) (*mat.Dense, []float64) {
	r := rng.New(seed)
	centers := mat.New(clusters, dim)
	for i := range centers.Data {
		centers.Data[i] = r.NormFloat64() * 2
	}
	emb := mat.New(n, dim)
	for v := 0; v < n; v++ {
		c := centers.Row(v % clusters)
		row := emb.Row(v)
		for j := range row {
			row[j] = c[j] + r.NormFloat64()*0.5
		}
	}
	norms := make([]float64, n)
	for v := 0; v < n; v++ {
		row := emb.Row(v)
		norms[v] = math.Sqrt(mat.Dot(row, row))
	}
	return emb, norms
}

// uniformTable builds a seeded table with no cluster structure —
// i.i.d. Gaussian rows — the adversarial case for a navigable small
// world graph (nothing is much closer than anything else).
func uniformTable(n, dim int, seed uint64) (*mat.Dense, []float64) {
	r := rng.New(seed)
	emb := mat.New(n, dim)
	for i := range emb.Data {
		emb.Data[i] = r.NormFloat64()
	}
	norms := make([]float64, n)
	for v := 0; v < n; v++ {
		row := emb.Row(v)
		norms[v] = math.Sqrt(mat.Dot(row, row))
	}
	return emb, norms
}

func buildTest(tb testing.TB, n, dim int, p Params, workers int) *Index {
	tb.Helper()
	emb, norms := randTable(n, dim, 16, 42)
	return Build(emb, norms, p, workers)
}

// TestLevelForDistribution checks the LCG layer assignment: pure in
// (seed, id), geometric-ish with p = 1/4, bounded by maxLevel.
func TestLevelForDistribution(t *testing.T) {
	counts := make([]int, maxLevel)
	const n = 100000
	for v := int32(0); v < n; v++ {
		l := levelFor(7, v)
		if l != levelFor(7, v) {
			t.Fatalf("levelFor not a pure function at id %d", v)
		}
		if l < 0 || l >= maxLevel {
			t.Fatalf("level %d out of range", l)
		}
		counts[l]++
	}
	if counts[0] < n*6/10 || counts[0] > n*9/10 {
		t.Errorf("base-level fraction %d/%d far from 3/4", counts[0], n)
	}
	// Each level should hold roughly a quarter of the one below.
	if counts[1] == 0 || counts[2] == 0 {
		t.Errorf("upper levels unpopulated: %v", counts[:4])
	}
	if levelFor(7, 12345) == levelFor(8, 12345) &&
		levelFor(7, 54321) == levelFor(8, 54321) &&
		levelFor(7, 999) == levelFor(8, 999) &&
		levelFor(7, 31337) == levelFor(8, 31337) {
		t.Error("seed appears to have no effect on level assignment")
	}
}

// TestSearchProperties asserts the query-path invariants the serving
// layer depends on: every returned id is a valid vertex, the query
// vertex itself is excluded, results carry no duplicates, and the
// list is sorted by the Before total order.
func TestSearchProperties(t *testing.T) {
	const n = 600
	ix := buildTest(t, n, 16, Params{}, 3)
	for _, q := range []int32{0, 1, 77, 311, 599} {
		for _, k := range []int{1, 5, 20} {
			for _, ef := range []int{0, 8, 64} {
				got := ix.SearchVertex(q, k, ef)
				if len(got) == 0 || len(got) > k {
					t.Fatalf("q=%d k=%d ef=%d: %d results", q, k, ef, len(got))
				}
				seen := make(map[int32]bool)
				for i, c := range got {
					if c.ID < 0 || c.ID >= n {
						t.Fatalf("q=%d: invalid id %d", q, c.ID)
					}
					if c.ID == q {
						t.Fatalf("q=%d: query vertex in its own result", q)
					}
					if seen[c.ID] {
						t.Fatalf("q=%d: duplicate id %d", q, c.ID)
					}
					seen[c.ID] = true
					if i > 0 && !Before(got[i-1].Score, got[i-1].ID, c.Score, c.ID) {
						t.Fatalf("q=%d: results not sorted by the total order at rank %d", q, i)
					}
				}
			}
		}
	}
}

// TestSearchFullBeamMatchesExact sets ef = |V|: the beam then covers
// every reachable vertex, so the ANN answer must be a subset of — and
// with the index's connected base layer, equal to — the exact
// scanner's top-K.
func TestSearchFullBeamMatchesExact(t *testing.T) {
	const n = 500
	ix := buildTest(t, n, 12, Params{}, 2)
	for _, q := range []int32{0, 9, 250, 499} {
		for _, k := range []int{1, 10, 37} {
			got := ix.SearchVertex(q, k, n)
			want := ix.ExactTopKVertex(q, k)
			if len(got) != len(want) {
				t.Fatalf("q=%d k=%d: %d results, want %d", q, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d k=%d rank %d: got %+v, want %+v", q, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExactTopKMatchesSort cross-checks the harness's own reference
// scanner against a plain sort.
func TestExactTopKMatchesSort(t *testing.T) {
	emb, norms := randTable(120, 8, 4, 9)
	q := emb.Row(5)
	qn := norms[5]
	got := ExactTopK(emb, norms, q, qn, 10, 5)
	var all []Candidate
	for v := 0; v < 120; v++ {
		if v == 5 {
			continue
		}
		s := 0.0
		if d := qn * norms[v]; d > 0 {
			s = mat.Dot(q, emb.Row(v)) / d
		}
		all = append(all, Candidate{ID: int32(v), Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		return Before(all[i].Score, all[i].ID, all[j].Score, all[j].ID)
	})
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], all[i])
		}
	}
}

// TestIndexStructure sanity-checks the built graph: the entry is the
// highest-level vertex with the lowest id, link capacities are
// respected, and all links point at valid vertices at valid levels.
func TestIndexStructure(t *testing.T) {
	const n = 400
	ix := buildTest(t, n, 16, Params{M: 8}, 4)
	st := ix.Stats()
	if st.N != n {
		t.Fatalf("N = %d", st.N)
	}
	wantEntry := int32(0)
	for v := int32(1); v < n; v++ {
		if ix.nodes[v].level > ix.nodes[wantEntry].level {
			wantEntry = v
		}
	}
	if ix.entry != wantEntry {
		t.Errorf("entry = %d (level %d), want %d (level %d)",
			ix.entry, ix.nodes[ix.entry].level, wantEntry, ix.nodes[wantEntry].level)
	}
	if ix.adj != nil {
		t.Fatal("Build left its growing graph unpacked")
	}
	// The links array holds, vertex after vertex, each layer's count
	// and links and nothing else.
	off := 0
	for v := int32(0); v < n; v++ {
		nd := ix.nodes[v]
		if nd.off != off {
			t.Fatalf("vertex %d: links start at %d, the vertex before ends at %d", v, nd.off, off)
		}
		for l := int32(0); l <= nd.level; l++ {
			ls := ix.linksAt(v, l)
			off += 1 + len(ls)
			if len(ls) > ix.capAt(l) {
				t.Fatalf("vertex %d layer %d: %d links exceeds cap %d", v, l, len(ls), ix.capAt(l))
			}
			for _, u := range ls {
				if u < 0 || u >= n || u == v {
					t.Fatalf("vertex %d layer %d: bad link %d", v, l, u)
				}
				if ix.nodes[u].level < l {
					t.Fatalf("vertex %d layer %d links to %d whose level is %d", v, l, u, ix.nodes[u].level)
				}
			}
		}
	}
	if off != len(ix.links) {
		t.Fatalf("vertices end at %d of a %d-entry links array", off, len(ix.links))
	}
	// Base layer must keep every non-entry vertex attached.
	for v := int32(0); v < n; v++ {
		if v != ix.entry && len(ix.linksAt(v, 0)) == 0 {
			t.Fatalf("vertex %d has no base-layer links", v)
		}
	}
}

// TestHeapTotalOrder drives both heap orientations over a tie-heavy
// offer stream and checks pops agree with a reference sort.
func TestHeapTotalOrder(t *testing.T) {
	r := rng.New(3)
	var items []Candidate
	for i := 0; i < 200; i++ {
		items = append(items, Candidate{ID: int32(i), Score: float64(r.Intn(5))})
	}
	for _, best := range []bool{true, false} {
		h := &heap{best: best}
		for _, c := range items {
			h.push(c)
		}
		ref := append([]Candidate(nil), items...)
		sort.Slice(ref, func(i, j int) bool {
			b := Before(ref[i].Score, ref[i].ID, ref[j].Score, ref[j].ID)
			if best {
				return b
			}
			return !b
		})
		for i := range ref {
			if got := h.pop(); got != ref[i] {
				t.Fatalf("best=%v pop %d: got %+v, want %+v", best, i, got, ref[i])
			}
		}
	}
}

// TestEmptyAndTiny covers degenerate tables.
func TestEmptyAndTiny(t *testing.T) {
	empty := Build(mat.New(0, 4), nil, Params{}, 2)
	if got := empty.Search([]float64{1, 0, 0, 0}, 1, 5, 0, -1); got != nil {
		t.Errorf("empty index returned %v", got)
	}
	one := Build(mat.FromData(1, 2, []float64{1, 2}), nil, Params{}, 2)
	if got := one.SearchVertex(0, 3, 0); len(got) != 0 {
		t.Errorf("single-vertex self-query returned %v", got)
	}
	two := Build(mat.FromData(2, 2, []float64{1, 0, 0.9, 0.1}), nil, Params{}, 2)
	got := two.SearchVertex(0, 5, 0)
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("two-vertex query = %v", got)
	}
}
