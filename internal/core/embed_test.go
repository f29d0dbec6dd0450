package core

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
)

// naiveEmbeddings is the dense reference: plain per-vertex loops with
// the same accumulation orders as the training kernels (neighbors in
// adjacency order, GEMM terms in k order), no parallelism, no
// blocking. A layer that propagates its output aggregates the rows of
// P = H·W_neigh, formed first for every vertex, and takes the result
// as Z_neigh.
func naiveEmbeddings(m *Model, g *graph.CSR, feats *mat.Dense) *mat.Dense {
	cur := feats
	for _, l := range m.Layers {
		in, out := l.InDim, l.OutDim
		// src is what the layer aggregates: H, or P = H·W_neigh.
		src := cur
		if l.PropagatesOutput() {
			src = mat.New(g.N, out)
			for u := 0; u < g.N; u++ {
				hrow, prow := cur.Row(u), src.Row(u)
				for k := 0; k < in; k++ {
					if av := hrow[k]; av != 0 {
						wrow := l.WNeigh.W.Row(k)
						for j := 0; j < out; j++ {
							prow[j] += av * wrow[j]
						}
					}
				}
			}
		}
		next := mat.New(g.N, 2*out)
		agg := make([]float64, src.Cols)
		for v := 0; v < g.N; v++ {
			for j := range agg {
				agg[j] = 0
			}
			nb := g.Neighbors(int32(v))
			for _, u := range nb {
				for j, x := range src.Row(int(u)) {
					agg[j] += x
				}
			}
			if len(nb) > 0 {
				inv := 1 / float64(len(nb))
				for j := range agg {
					agg[j] *= inv
				}
			}
			drow := next.Row(v)
			hrow := cur.Row(v)
			// z_self then z_neigh, accumulating over k in order with
			// the same zero-skip as mat.Mul's axpy loop.
			for k := 0; k < in; k++ {
				if av := hrow[k]; av != 0 {
					wrow := l.WSelf.W.Row(k)
					for j := 0; j < out; j++ {
						drow[j] += av * wrow[j]
					}
				}
			}
			if l.PropagatesOutput() {
				copy(drow[out:], agg)
			} else {
				for k := 0; k < in; k++ {
					if av := agg[k]; av != 0 {
						wrow := l.WNeigh.W.Row(k)
						for j := 0; j < out; j++ {
							drow[out+j] += av * wrow[j]
						}
					}
				}
			}
			if l.Activate {
				for j, x := range drow {
					if !(x > 0) {
						drow[j] = 0
					}
				}
			}
		}
		cur = next
	}
	return cur
}

// TestFullEmbeddingsMatchesNaive checks the block-streamed
// layer-wise forward pass against the naive dense reference,
// bit-for-bit (Float64bits: Equal would take -0 for +0), at every
// Workers and BlockSize combination — and for a deeper stack, and on
// 40 features, where the first layer (40 -> 8) propagates its output,
// at one to three layers, and at either side of that rule's edge
// (40 -> 19 propagates its output, 40 -> 20 its input).
func TestFullEmbeddingsMatchesNaive(t *testing.T) {
	embedData := func(features int) *datasets.Dataset {
		return datasets.Generate(datasets.Config{
			Name: "embed-test", Vertices: 300, TargetEdges: 2400,
			FeatureDim: features, NumClasses: 4,
			Homophily: 0.8, NoiseStd: 0.5, Seed: 11,
		})
	}
	narrow, wide := embedData(12), embedData(40)
	type embedCase struct {
		name   string
		ds     *datasets.Dataset
		layers int
		hidden int
	}
	cases := []embedCase{
		{"mean-2layer", narrow, 2, 8},
		{"mean-3layer", narrow, 3, 8},
		{"wide-mean-h19-2layer", wide, 2, 19},
		{"wide-mean-h20-2layer", wide, 2, 20},
	}
	for layers := 1; layers <= 3; layers++ {
		cases = append(cases, embedCase{fmt.Sprintf("wide-mean-%dlayer", layers), wide, layers, 8})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			m := NewModel(ds, Config{
				Layers: tc.layers, Hidden: tc.hidden, Workers: 1, Seed: 17,
			})
			if got, want := m.Layers[0].PropagatesOutput(), 2*tc.hidden < ds.Features.Cols; got != want {
				t.Fatalf("first layer PropagatesOutput = %t, want %t", got, want)
			}
			want := naiveEmbeddings(m, ds.G, ds.Features)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, block := range []int{1, 7, 64, 1000} {
					got := m.FullEmbeddings(ds.G, ds.Features, workers, block)
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("workers=%d block=%d: shape %dx%d, want %dx%d",
							workers, block, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					for i, v := range got.Data {
						if w := want.Data[i]; math.Float64bits(v) != math.Float64bits(w) {
							t.Fatalf("workers=%d block=%d: element %d is %v (%#016x), naive reference %v (%#016x)",
								workers, block, i, v, math.Float64bits(v), w, math.Float64bits(w))
						}
					}
				}
			}
		})
	}
}
