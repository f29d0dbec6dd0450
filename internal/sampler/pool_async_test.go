package sampler

// Determinism and race-safety suite for the asynchronous prefetching
// Pool (ISSUE 1). Run with -race: the concurrency tests are written to
// put the prefetcher's dispatch, delivery ordering and credit
// accounting under contention.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"gsgcn/internal/graph"
)

// poolSamplers returns the table of (name, sampler) pairs the
// determinism contract is verified against.
func poolSamplers(g *graph.CSR) []struct {
	name string
	s    VertexSampler
} {
	return []struct {
		name string
		s    VertexSampler
	}{
		{"frontier", &Frontier{G: g, M: 30, N: 150, Eta: 2}},
		{"node2vec", &Node2VecWalk{G: g, Walkers: 15, Depth: 9, P: 1, Q: 0.5}},
	}
}

// drawSequence collects the Orig vertex lists of n consecutive Next
// calls from a fresh pool.
func drawSequence(g *graph.CSR, s VertexSampler, pinter, workers int, seed uint64, n int) [][]int32 {
	p := NewPool(g, s, pinter, seed)
	p.Workers = workers
	out := make([][]int32, n)
	for i := range out {
		out[i] = p.Next().Orig
	}
	return out
}

func sequencesEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// subgraphKey flattens a vertex list into a comparable multiset key.
func subgraphKey(orig []int32) string {
	return fmt.Sprint(orig)
}

// TestPoolDeterminismAcrossWorkersAndDepth checks the pipeline's core
// contract: the subgraph *sequence* delivered to a single consumer is
// identical for every Workers setting at the pool's fixed depth of
// pipelineWaves waves, for each sampler family. (Sequence equality
// implies multiset equality; both are what the trainer's loss-trace
// determinism rests on.)
func TestPoolDeterminismAcrossWorkersAndDepth(t *testing.T) {
	g := testGraph(t)
	const pinter, seed, draws = 4, 7, 12
	for _, tc := range poolSamplers(g) {
		t.Run(tc.name, func(t *testing.T) {
			ref := drawSequence(g, tc.s, pinter, 1, seed, draws)
			for _, workers := range []int{2, 8} {
				got := drawSequence(g, tc.s, pinter, workers, seed, draws)
				if !sequencesEqual(ref, got) {
					t.Fatalf("workers=%d: subgraph sequence differs from workers=1", workers)
				}
			}
		})
	}
}

// TestPoolConcurrentNextMultiset lets 8 goroutines consume from one
// pool concurrently. Which goroutine receives which subgraph is
// scheduling-dependent, but the union of everything received must be
// exactly the multiset a serial consumer sees.
func TestPoolConcurrentNextMultiset(t *testing.T) {
	g := testGraph(t)
	const pinter, seed, perG, goroutines = 4, 11, 6, 8
	for _, tc := range poolSamplers(g) {
		t.Run(tc.name, func(t *testing.T) {
			total := perG * goroutines
			serial := drawSequence(g, tc.s, pinter, 4, seed, total)
			want := map[string]int{}
			for _, orig := range serial {
				want[subgraphKey(orig)]++
			}

			p := NewPool(g, tc.s, pinter, seed)
			p.Workers = 4
			var mu sync.Mutex
			got := map[string]int{}
			var wg sync.WaitGroup
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < perG; j++ {
						sub := p.Next()
						mu.Lock()
						got[subgraphKey(sub.Orig)]++
						mu.Unlock()
					}
				}()
			}
			wg.Wait()

			if len(got) != len(want) {
				t.Fatalf("concurrent consumers saw %d distinct subgraphs, serial saw %d", len(got), len(want))
			}
			keys := make([]string, 0, len(want))
			for k := range want {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if got[k] != want[k] {
					t.Fatalf("subgraph multiplicity mismatch: got %d, want %d", got[k], want[k])
				}
			}
		})
	}
}
