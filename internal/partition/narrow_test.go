package partition

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// TestNarrowMatchesPerVertex: the block kernel's path gives every
// vertex the per-vertex path's bits, NaN payloads included, at widths 1
// to 20, under both norms, over the whole graph, vertex blocks and
// blocks of row lists — the unlisted rows a block owns cleared, the
// rest untouched — with NaN, ±Inf, -0 and subnormals among the values;
// and the schedules, which share one NormSrc weight table among their
// blocks, give every vertex the same bits at several vertex cuts.
func TestNarrowMatchesPerVertex(t *testing.T) {
	g := holeyGraph(t, 83)
	r := rng.New(77)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0x1p-1070}
	var list []int
	for v := 0; v < g.N; v++ {
		if r.Intn(3) != 0 {
			list = append(list, v)
		}
	}
	blocks := []struct {
		rows     []int
		tlo, thi int
	}{{nil, 0, g.N}, {nil, 5, 40}, {list, 0, len(list)}, {list, 3, len(list) / 2}, {list, len(list) / 2, len(list)}}
	for f := 1; f <= mat.GatherCSRMax+4; f++ {
		src := randomFeatures(r, g.N, f)
		for i := range src.Data {
			if r.Intn(9) == 0 {
				src.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		for _, norm := range []Norm{NormDst, NormSrc} {
			for bi, b := range blocks {
				got, want := mat.New(g.N, f), mat.New(g.N, f)
				got.Fill(99.5)
				want.Fill(99.5)
				var invDeg []float64
				if norm == NormSrc {
					invDeg = *invDegrees(g)
				}
				propagateNarrow(got, 0, src, g, invDeg, b.rows, b.tlo, b.thi)
				propagatePerVertex(want, 0, src, g, norm, b.rows, b.tlo, b.thi, 0, f)
				sameBits(t, fmt.Sprintf("f=%d norm=%d block %d", f, norm, bi), got, 0, g.N, 0, f, want, 0)
			}
			for _, rows := range [][]int{nil, list} {
				count := g.N
				if rows != nil {
					count = len(rows)
				}
				want := mat.New(g.N, f)
				propagatePerVertex(want, 0, src, g, norm, rows, 0, count, 0, f)
				for _, workers := range []int{1, 3} {
					got := mat.New(g.N, f)
					got.Fill(99.5)
					PropagateList(got, src, g, norm, rows, 1, workers)
					sameBits(t, fmt.Sprintf("f=%d norm=%d list=%t workers=%d", f, norm, rows != nil, workers), got, 0, g.N, 0, f, want, 0)
				}
				if rows == nil {
					for _, pv := range []int{2, 7} {
						got := mat.New(g.N, f)
						got.Fill(99.5)
						Propagate2D(got, src, g, norm, pv, 1, 2)
						sameBits(t, fmt.Sprintf("f=%d norm=%d pv=%d", f, norm, pv), got, 0, g.N, 0, f, want, 0)
					}
				}
			}
		}
	}
}

// trainPropSubgraph is a subgraph of train_prop's shape: reddit at
// scale 0.015, the frontier sampler at M 150 and N 1000, seed 1.
func trainPropSubgraph(tb testing.TB) *graph.Subgraph {
	tb.Helper()
	cfg, err := datasets.Preset("reddit", 0.015)
	if err != nil {
		tb.Fatal(err)
	}
	g := datasets.Generate(cfg).G
	fr := &sampler.Frontier{G: g, M: 150, N: 1000}
	return g.Induce(fr.SampleVertices(rng.NewStream(1, 0)))
}

// BenchmarkPropagateNarrow times a train_prop subgraph's propagation at
// the widths training propagates, 8 (the first layer's output) and 16
// (the second layer's input), under both norms, at one core: the
// per-vertex path (one mat.GatherSum a vertex, NormSrc's weights per
// arc) against a one-worker PropagateList, which is the block kernel
// (one mat.GatherCSR call; under NormSrc after one pass that builds the
// weight table). The two
// alternate inside each iteration, so a drift of the host's speed
// reaches both alike; each reports µs per propagation.
func BenchmarkPropagateNarrow(b *testing.B) {
	sub := trainPropSubgraph(b)
	g := sub.CSR
	for _, f := range []int{8, 16} {
		src := randomFeatures(rng.New(uint64(f)), g.N, f)
		dst := mat.New(g.N, f)
		for _, norm := range []Norm{NormDst, NormSrc} {
			b.Run(fmt.Sprintf("f=%d/norm=%s", f, [...]string{"dst", "src"}[norm]), func(b *testing.B) {
				paths := [2]func(){
					func() { propagatePerVertex(dst, 0, src, g, norm, nil, 0, g.N, 0, f) },
					func() { PropagateList(dst, src, g, norm, nil, 1, 1) },
				}
				var spent [2]time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := range paths {
						k := (i + j) % 2
						start := time.Now()
						paths[k]()
						spent[k] += time.Since(start)
					}
				}
				for k, name := range [2]string{"per-vertex", "block"} {
					b.ReportMetric(float64(spent[k].Microseconds())/float64(b.N), name+"-us")
				}
			})
		}
	}
}
