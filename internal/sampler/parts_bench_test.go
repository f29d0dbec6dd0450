package sampler

import (
	"testing"
	"time"

	"gsgcn/internal/datasets"
	"gsgcn/internal/rng"
)

// constSampler returns the same vertex list every time: a pool whose
// sampling costs nothing, so that Next and Release time the hand-off.
type constSampler []int32

func (constSampler) Name() string                      { return "const" }
func (s constSampler) SampleVertices(*rng.RNG) []int32 { return s }

// BenchmarkSubgraphParts prices the parts of one train_prop subgraph —
// reddit at scale 0.015, the frontier sampler at M 150 and N 1000 — at
// one core: SampleVertices; Induce into new buffers; Induce into a
// released slot, which a pool's waves do once the trainer hands its
// subgraphs back; and the pool's hand-off, Next and Release of a
// subgraph whose sampling costs nothing (a pool of one instance a wave
// over a constant vertex list). The four alternate inside each
// iteration, the induce cases over 32 vertex lists drawn beforehand, so
// a drift of the host's speed reaches all alike. Each reports µs per
// subgraph; allocs/op is the iteration's, and each case's own
// allocations per call are reported beside it.
func BenchmarkSubgraphParts(b *testing.B) {
	cfg, err := datasets.Preset("reddit", 0.015)
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.Generate(cfg).G
	fr := &Frontier{G: g, M: 150, N: 1000}
	lists := make([][]int32, 32)
	for i := range lists {
		lists[i] = fr.SampleVertices(rng.NewStream(1, i))
	}
	slot := g.Induce(lists[0])
	pool := NewPool(g, constSampler{0}, 1, 1)
	pool.Release(pool.Next())
	var draw int
	cases := [4]struct {
		name string
		run  func(i int)
	}{
		{"sample", func(i int) { fr.SampleVertices(rng.NewStream(2, draw)); draw++ }},
		{"induce-new", func(i int) { g.Induce(lists[i%len(lists)]) }},
		{"induce-released", func(i int) { slot = g.InduceInto(slot, lists[i%len(lists)]) }},
		{"handoff", func(int) { pool.Release(pool.Next()) }},
	}
	for _, c := range cases {
		b.ReportMetric(testing.AllocsPerRun(10, func() { c.run(0) }), c.name+"-allocs")
	}
	var spent [len(cases)]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cases {
			k := (i + j) % len(cases)
			start := time.Now()
			cases[k].run(i)
			spent[k] += time.Since(start)
		}
	}
	b.StopTimer()
	for k, c := range cases {
		b.ReportMetric(float64(spent[k].Nanoseconds())/1e3/float64(b.N), c.name+"-us")
	}
}
