package sampler

import (
	"slices"
	"sync"
	"testing"

	"gsgcn/internal/graph"
)

// snapshot is a copy of a subgraph's contents, taken before the
// subgraph is released.
type snapshot struct {
	orig   []int32
	rowPtr []int64
	colIdx []int32
}

func snap(s *graph.Subgraph) snapshot {
	return snapshot{slices.Clone(s.Orig), slices.Clone(s.RowPtr), slices.Clone(s.ColIdx)}
}

// drawSnapshots takes n subgraphs from a fresh pool. With release set,
// each is copied, poisoned in every element its buffers hold and
// released before the next Next, as a consumer that scribbled on its
// subgraph and handed it back would leave it.
func drawSnapshots(g *graph.CSR, s VertexSampler, pinter, workers int, n int, release bool) []snapshot {
	p := NewPool(g, s, pinter, 11)
	p.Workers = workers
	out := make([]snapshot, n)
	for i := range out {
		sub := p.Next()
		out[i] = snap(sub)
		if release {
			for j := range sub.Orig[:cap(sub.Orig)] {
				sub.Orig[:cap(sub.Orig)][j] = -1
			}
			for j := range sub.ColIdx[:cap(sub.ColIdx)] {
				sub.ColIdx[:cap(sub.ColIdx)][j] = -1
			}
			for j := range sub.RowPtr {
				sub.RowPtr[j] = -1
			}
			p.Release(sub)
		}
	}
	return out
}

// TestPoolReleaseNeverChangesTheStream: a pool whose consumer releases
// every subgraph — after poisoning it — delivers the same subgraphs,
// to the element, as one whose consumer keeps them all, at one and
// several instances a wave and workers; and a released subgraph comes
// back as the buffers of a later one.
func TestPoolReleaseNeverChangesTheStream(t *testing.T) {
	g := testGraph(t)
	for _, tc := range poolSamplers(g) {
		for _, pinter := range []int{1, 3} {
			for _, workers := range []int{1, 4} {
				kept := drawSnapshots(g, tc.s, pinter, workers, 15, false)
				released := drawSnapshots(g, tc.s, pinter, workers, 15, true)
				for i := range kept {
					a, b := kept[i], released[i]
					if !slices.Equal(a.orig, b.orig) || !slices.Equal(a.rowPtr, b.rowPtr) || !slices.Equal(a.colIdx, b.colIdx) {
						t.Fatalf("%s pinter=%d workers=%d: subgraph %d differs once subgraphs are released", tc.name, pinter, workers, i)
					}
				}
			}
		}
	}

	p := NewPool(g, &Frontier{G: g, M: 30, N: 150, Eta: 2}, 1, 3)
	first := p.Next()
	p.Release(first)
	reused := false
	for i := 0; i < 2*pipelineWaves+2 && !reused; i++ {
		sub := p.Next()
		reused = sub == first
		p.Release(sub)
	}
	if !reused {
		t.Fatal("a released subgraph never came back from Next")
	}
}

// TestPoolReleaseConcurrentConsumers: consumers that step and release
// subgraphs concurrently (under -race: the free list against the waves
// that take from it) receive exactly the multiset a serial consumer
// sees.
func TestPoolReleaseConcurrentConsumers(t *testing.T) {
	g := testGraph(t)
	s := &Frontier{G: g, M: 30, N: 150, Eta: 2}
	const consumers, each = 4, 6
	want := map[string]int{}
	for _, sn := range drawSnapshots(g, s, 2, 2, consumers*each, false) {
		want[subgraphKey(sn.orig)]++
	}
	p := NewPool(g, s, 2, 11)
	p.Workers = 2
	var mu sync.Mutex
	got := map[string]int{}
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sub := p.Next()
				key := subgraphKey(sub.Orig)
				p.Release(sub)
				mu.Lock()
				got[key]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("concurrent consumers received subgraph %s %d times, want %d", k, got[k], n)
		}
	}
}
