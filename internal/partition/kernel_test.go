package partition

import (
	"math"
	"testing"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// The loops below are the per-operator aggregation loops propagateBlock
// replaced, kept as its differential reference: this package's own mean
// and transpose (on mat's vector primitives, whole graph, one column
// chunk) and serve's aggregateRowRange (scalar Go, one vertex block,
// the forward mean only). The unified kernel has to reproduce every
// one of them to the bit.

func refVector(src *mat.Dense, g *graph.CSR, norm Norm) *mat.Dense {
	f := src.Cols
	dst := mat.New(g.N, f)
	for v := 0; v < g.N; v++ {
		drow := dst.Data[v*f : (v+1)*f]
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			continue
		}
		switch norm {
		case NormDst:
			for _, u := range nb {
				mat.AddTo(drow, src.Data[int(u)*f:(int(u)+1)*f])
			}
			mat.Scal(drow, 1/float64(len(nb)))
		case NormSrc:
			for _, u := range nb {
				mat.Axpy(drow, src.Data[int(u)*f:(int(u)+1)*f], 1/float64(g.Degree(u)))
			}
		}
	}
	return dst
}

// refScalarRows is the forward mean over vertices [lo, hi).
func refScalarRows(src *mat.Dense, g *graph.CSR, lo, hi int) *mat.Dense {
	f := src.Cols
	dst := mat.New(hi-lo, f)
	for v := lo; v < hi; v++ {
		drow := dst.Row(v - lo)
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			continue
		}
		for _, u := range nb {
			srow := src.Data[int(u)*f : (int(u)+1)*f]
			for j, x := range srow {
				drow[j] += x
			}
		}
		inv := 1 / float64(len(nb))
		for j := range drow {
			drow[j] *= inv
		}
	}
	return dst
}

// holeyGraph is a random graph in which every fifth vertex and the
// last few are isolated.
func holeyGraph(tb testing.TB, n int) *graph.CSR {
	tb.Helper()
	r := rng.New(9)
	live := func() int32 {
		for {
			if v := r.Intn(n - 4); v%5 != 0 {
				return int32(v)
			}
		}
	}
	edges := make([]graph.Edge, 6*n)
	for i := range edges {
		edges[i] = graph.Edge{U: live(), V: live()}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// sameBits fails unless got[r0:r1, c0:c1] is want's block at
// (wr0, c0), bit for bit.
func sameBits(t *testing.T, tag string, got *mat.Dense, r0, r1, c0, c1 int, want *mat.Dense, wr0 int) {
	t.Helper()
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			g, w := got.At(r, c), want.At(wr0+r-r0, c)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: element (%d,%d) = %v, want %v", tag, r, c, g, w)
			}
		}
	}
}

func TestPropagateKernelMatchesPerOperatorLoops(t *testing.T) {
	const n, f = 83, 21 // odd sizes: vector tails and a ragged last block
	g := holeyGraph(t, n)
	src := randomFeatures(rng.New(6), n, f)
	const stale = 99.5 // what a destination holds before the kernel runs
	names := map[Norm]string{NormDst: "dst", NormSrc: "src"}
	for norm, name := range names {
		want := refVector(src, g, norm)

		// Column ranges over every vertex: chunks, a single column, all.
		for _, cr := range [][2]int{{0, f}, {0, 1}, {3, 4}, {5, 16}, {16, f}, {f - 1, f}} {
			dst := mat.New(n, f)
			dst.Fill(stale)
			propagateBlock(dst, 0, src, g, norm, nil, 0, n, cr[0], cr[1])
			sameBits(t, name+"/cols", dst, 0, n, cr[0], cr[1], want, 0)
			for v := 0; v < n; v++ {
				for c := 0; c < f; c++ {
					if (c < cr[0] || c >= cr[1]) && dst.At(v, c) != stale {
						t.Fatalf("%s cols [%d,%d): wrote (%d,%d) outside the range", name, cr[0], cr[1], v, c)
					}
				}
			}
		}

		// Feature-partitioned and 2-D schedules.
		for _, q := range []int{1, 4, f} {
			dst := mat.New(n, f)
			dst.Fill(stale)
			Propagate(dst, src, g, norm, q, 3)
			sameBits(t, name+"/propagate", dst, 0, n, 0, f, want, 0)
			dst.Fill(stale)
			Propagate2D(dst, src, g, norm, 5, q, 3)
			sameBits(t, name+"/2d", dst, 0, n, 0, f, want, 0)
		}

		// Row ranges into a block-local destination.
		for _, rr := range [][2]int{{0, n}, {0, 1}, {7, 8}, {10, 41}, {41, n}, {n - 4, n}, {12, 12}} {
			blk := mat.New(rr[1]-rr[0], f)
			blk.Fill(stale)
			PropagateRows(blk, src, g, norm, rr[0], rr[1])
			sameBits(t, name+"/rows", blk, 0, blk.Rows, 0, f, want, rr[0])
			if norm == NormDst {
				sameBits(t, name+"/rows-scalar", blk, 0, blk.Rows, 0, f, refScalarRows(src, g, rr[0], rr[1]), 0)
			}
		}
	}
	if g.Degree(0) != 0 || g.Degree(n-1) != 0 || g.Degree(1) == 0 {
		t.Fatal("graph has no isolated vertices beside live ones: the zero rows went untested")
	}
}
