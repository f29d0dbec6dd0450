package graph

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"gsgcn/internal/rng"
)

// sameSubgraph reports whether got is want to the element.
func sameSubgraph(got, want *Subgraph) bool {
	return got.N == want.N && slices.Equal(got.Orig, want.Orig) &&
		slices.Equal(got.RowPtr, want.RowPtr) && slices.Equal(got.ColIdx, want.ColIdx)
}

// induceCases returns seeded vertex multisets over a graph of n
// vertices: empty, one vertex, the bitmap's word edges 63/64/65 and the
// last vertex, duplicates at every density, the whole graph (twice
// over, shuffled), and small and large random draws.
func induceCases(n int, r *rng.RNG) map[string][]int32 {
	cases := map[string][]int32{
		"empty":        {},
		"one":          {int32(n / 2)},
		"last":         {int32(n - 1)},
		"word-edges":   {65, 63, 64, int32(n - 1), 63},
		"all-the-same": {7, 7, 7, 7},
	}
	whole := make([]int32, 0, 2*n)
	for v := 0; v < n; v++ {
		whole = append(whole, int32(v), int32(n-1-v))
	}
	for i := len(whole) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		whole[i], whole[j] = whole[j], whole[i]
	}
	cases["whole-graph"] = whole
	for _, k := range []int{3, n / 10, n / 2, 2 * n} {
		vs := make([]int32, k)
		for i := range vs {
			vs[i] = int32(r.Intn(n))
		}
		cases[fmt.Sprintf("random-%d", k)] = vs
	}
	return cases
}

// TestInduceMatchesSortAndMap holds Induce, and InduceInto on one slot
// reused across every case, to the sort-and-map reference on a graph
// with isolated vertices (every third, vertex 0 among them, and the
// last two) and one without.
func TestInduceMatchesSortAndMap(t *testing.T) {
	const n = 300
	r := rng.New(55)
	var withIsolated []Edge
	for i := 0; i < 4*n; i++ {
		u, v := int32(r.Intn(n-2)), int32(r.Intn(n-2))
		if u%3 != 0 && v%3 != 0 {
			withIsolated = append(withIsolated, Edge{u, v})
		}
	}
	isolated, err := FromEdges(n, withIsolated)
	if err != nil {
		t.Fatal(err)
	}
	slot := new(Subgraph)
	for gi, g := range []*CSR{randomGraph(t, n, 5*n, 56), isolated} {
		for name, vs := range induceCases(n, r) {
			in := slices.Clone(vs)
			want := induceByMap(g, vs)
			if got := g.Induce(vs); !sameSubgraph(got, want) {
				t.Fatalf("graph %d %s: Induce differs from sort-and-map:\n got %+v %v\nwant %+v %v", gi, name, got.CSR, got.Orig, want.CSR, want.Orig)
			}
			if got := g.InduceInto(slot, vs); got != slot || !sameSubgraph(got, want) {
				t.Fatalf("graph %d %s: InduceInto a reused slot differs from sort-and-map", gi, name)
			}
			if !slices.Equal(vs, in) {
				t.Fatalf("graph %d %s: Induce modified its input", gi, name)
			}
		}
	}
}

// poison writes garbage into every element a subgraph's buffers hold,
// past their lengths too, as a consumer that scribbled on a released
// subgraph would.
func poison(s *Subgraph) {
	for i := range s.Orig[:cap(s.Orig)] {
		s.Orig[:cap(s.Orig)][i] = -7
	}
	for i := range s.RowPtr[:cap(s.RowPtr)] {
		s.RowPtr[:cap(s.RowPtr)][i] = -9
	}
	for i := range s.ColIdx[:cap(s.ColIdx)] {
		s.ColIdx[:cap(s.ColIdx)][i] = 1 << 30
	}
}

// TestInduceIntoReusedSlotNeverShowsStaleContents: one slot induced
// into over subgraphs that grow, shrink to nothing and grow again, its
// buffers poisoned between calls, gives each time what sort-and-map
// gives, and the pooled membership bitmap and local-id table are all
// zeros after every call; a scratch grown on a large graph serves a
// small one, and the other way round.
func TestInduceIntoReusedSlotNeverShowsStaleContents(t *testing.T) {
	const n = 1000
	g := randomGraph(t, n, 6*n, 57)
	r := rng.New(58)
	var slot *Subgraph
	for i, k := range []int{400, 20, 0, 1, 999, 3000, 50, 700} {
		vs := make([]int32, k)
		for j := range vs {
			vs[j] = int32(r.Intn(n))
		}
		if slot != nil {
			poison(slot)
		}
		got := g.InduceInto(slot, vs)
		if slot != nil && got != slot {
			t.Fatalf("call %d: InduceInto did not reuse its slot", i)
		}
		slot = got
		if want := induceByMap(g, vs); !sameSubgraph(got, want) {
			t.Fatalf("call %d (k=%d): the reused slot differs from sort-and-map", i, k)
		}
		// The pool hands the scratch back to the goroutine that put it
		// there, unless the collector (or the race detector) dropped it.
		if sc, _ := induceScratches.Get().(*induceScratch); sc != nil {
			for w, word := range sc.member {
				if word != 0 {
					t.Fatalf("call %d: membership word %d left at %#x", i, w, word)
				}
			}
			for v, l := range sc.local {
				if l != 0 {
					t.Fatalf("call %d: vertex %d's local id left at %d", i, v, l)
				}
			}
			induceScratches.Put(sc)
		}
	}
	// A slot grown on a small graph grows again for a larger one, and
	// the graphs take turns with the scratch.
	small := randomGraph(t, 70, 200, 59)
	tiny := small.InduceInto(nil, []int32{69, 3, 64})
	for i := 0; i < 3; i++ {
		if got, want := g.InduceInto(tiny, []int32{999, 0, 500}), induceByMap(g, []int32{999, 0, 500}); !sameSubgraph(got, want) {
			t.Fatal("a slot from a smaller graph differs from sort-and-map")
		}
		if got, want := small.InduceInto(tiny, []int32{69, 3, 64, 0}), induceByMap(small, []int32{69, 3, 64, 0}); !sameSubgraph(got, want) {
			t.Fatal("the smaller graph after the larger one differs from sort-and-map")
		}
	}
}

// TestInduceRejectsVerticesOutsideTheGraph: an id outside [0, |V|)
// panics before the slot's bitmap and table are touched, so the slot
// still induces correctly afterwards.
func TestInduceRejectsVerticesOutsideTheGraph(t *testing.T) {
	g := randomGraph(t, 130, 400, 60)
	slot := g.Induce([]int32{1, 2, 3})
	for _, bad := range []int32{130, 191, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("vertex %d: no panic", bad)
				}
			}()
			g.InduceInto(slot, []int32{5, 64, bad})
		}()
	}
	vs := []int32{0, 64, 65, 129}
	if got, want := g.InduceInto(slot, vs), induceByMap(g, vs); !sameSubgraph(got, want) {
		t.Fatal("the slot differs from sort-and-map after a rejected call")
	}
}

// TestInduceIntoReleasedSlotAllocatesNothing: once a slot has held a
// subgraph of the size, inducing into it again allocates nothing, and
// neither does a fresh Induce's scratch once the pool holds one. The
// race detector's sync.Pool drops what is put back at random, so under
// it there is nothing to count.
func TestInduceIntoReleasedSlotAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	g := randomGraph(t, 2000, 12000, 61)
	r := rng.New(62)
	vs := make([]int32, 600)
	for i := range vs {
		vs[i] = int32(r.Intn(g.N))
	}
	slot := g.Induce(vs)
	gc := debug.SetGCPercent(-1) // a collection empties the pool
	defer debug.SetGCPercent(gc)
	if allocs := testing.AllocsPerRun(20, func() { g.InduceInto(slot, vs) }); allocs != 0 {
		t.Fatalf("InduceInto a warmed slot: %v allocations, want 0", allocs)
	}
	// A new subgraph's buffers only: the subgraph, its CSR, Orig,
	// RowPtr and ColIdx.
	if allocs := testing.AllocsPerRun(20, func() { g.Induce(vs) }); allocs != 5 {
		t.Fatalf("Induce: %v allocations, want 5 (the scratch comes from the pool)", allocs)
	}
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool
