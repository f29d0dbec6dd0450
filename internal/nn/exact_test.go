package nn

// Bit-exactness suite for the parallel nn kernels: forward
// aggregation, full layer forward/backward and the dense head must
// produce element-identical outputs and gradients at every Workers
// (and feature-partition Q) setting. Run with -race to exercise the
// sharded paths under the race detector.

import (
	"math"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

func requireSame(t *testing.T, tag string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape mismatch", tag)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: %v != %v", tag, i, got.Data[i], want.Data[i])
		}
	}
}

func TestAggregateBitExactAcrossWorkersAndQ(t *testing.T) {
	const n, f = 23, 13 // prime-ish odd sizes
	ctx := testCtx(t, n)
	src := randMat(rng.New(3), n, f)
	for _, agg := range []Aggregator{AggMean, AggSym, AggSum} {
		want := mat.New(n, f)
		aggregate(want, src, ctx.G, agg, nil, 1, 1)
		for _, q := range []int{1, 2, 5, f, f + 10} {
			for _, w := range []int{1, 2, 8} {
				got := mat.New(n, f)
				aggregate(got, src, ctx.G, agg, nil, q, w)
				requireSame(t, agg.String(), got, want)
				gotT := mat.New(n, f)
				aggregateT(gotT, src, ctx.G, agg, q, w)
				wantT := mat.New(n, f)
				aggregateT(wantT, src, ctx.G, agg, 1, 1)
				requireSame(t, agg.String()+"/T", gotT, wantT)
			}
		}
	}
}

// layerPass runs one forward+backward through a freshly initialized
// layer and head at the given worker count and returns everything a
// training step derives from the kernels: output, input gradient and
// parameter gradients.
func layerPass(t *testing.T, workers int) []*mat.Dense {
	t.Helper()
	const n, in, out = 21, 9, 5
	ctx := testCtx(t, n)
	ctx.Workers = workers
	ctx.Q = 3
	r := rng.New(77)
	layer := NewGCNLayer(in, out, r)
	head := NewDense(layer.OutWidth(), 4, r)
	h := randMat(rng.New(5), n, in)

	z := layer.Forward(ctx, h)
	logits := head.Forward(ctx, z)
	dLogits := randMat(rng.New(7), n, 4)
	dZ := head.Backward(ctx, dLogits)
	dH := layer.Backward(ctx, dZ)

	results := []*mat.Dense{z, logits, dZ, dH}
	for _, p := range append(layer.Params(), head.Params()...) {
		results = append(results, p.Grad)
	}
	return results
}

func TestLayerForwardBackwardBitExactAcrossWorkers(t *testing.T) {
	want := layerPass(t, 1)
	for _, workers := range []int{2, 8} {
		got := layerPass(t, workers)
		for i := range want {
			requireSame(t, "pass output", got[i], want[i])
		}
	}
}

// TestBackwardParamsMatchesBackward: the parameters-only backward the
// model uses for its first layer accumulates exactly the gradients of
// the full Backward, with dropout on so the mask path is covered.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	const n, in, out = 21, 9, 5
	grads := func(paramsOnly bool) []*mat.Dense {
		ctx := testCtx(t, n)
		ctx.Q = 3
		ctx.Train, ctx.DropRate, ctx.Rng = true, 0.3, rng.New(5)
		r := rng.New(77)
		layer := NewGCNLayer(in, out, r)
		x := randMat(r, n, in)
		dOut := randMat(r, n, layer.OutWidth())
		layer.Forward(ctx, x)
		if paramsOnly {
			layer.BackwardParams(ctx, dOut)
		} else {
			layer.Backward(ctx, dOut)
		}
		return []*mat.Dense{layer.WSelf.Grad, layer.WNeigh.Grad}
	}
	want, got := grads(false), grads(true)
	for i := range want {
		if want[i].FrobeniusNorm() == 0 {
			t.Fatalf("gradient %d is zero: the comparison would be vacuous", i)
		}
		requireSame(t, "BackwardParams gradient", got[i], want[i])
	}
}

// TestCombineIsReluOfTheConcatenation holds the fused pass to the two
// it replaced: Combine's output to mat.Relu over [zSelf | zNeigh], and
// CombineGrad's halves, gated by that output, to the halves of
// mat.ReluGate gated by the concatenation itself — bit for bit, on
// NaNs, infinities, zeros of either sign and subnormals in both z and
// dOut, with Activate on and off, at 1 and 3 workers over enough rows
// for several chunks.
func TestCombineIsReluOfTheConcatenation(t *testing.T) {
	const n, f = 1500, 3
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	r := rng.New(13)
	draw := func(rows, cols int) *mat.Dense {
		m := randMat(r, rows, cols)
		for i := range m.Data {
			if r.Intn(3) == 0 {
				m.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		return m
	}
	zSelf, zNeigh, dOut := draw(n, f), draw(n, f), draw(n, 2*f)
	z := mat.New(n, 2*f)
	for i := 0; i < n; i++ {
		copy(z.Row(i)[:f], zSelf.Row(i))
		copy(z.Row(i)[f:], zNeigh.Row(i))
	}
	for _, activate := range []bool{true, false} {
		wantOut, wantDZ := z.Clone(), dOut.Clone()
		if activate {
			mat.Relu(wantOut.Data, z.Data)
			mat.ReluGate(wantDZ.Data, z.Data, dOut.Data)
		}
		l := &GCNLayer{OutDim: f, Activate: activate}
		for _, workers := range []int{1, 3} {
			out, dSelf, dNeigh := mat.New(n, 2*f), mat.New(n, f), mat.New(n, f)
			l.Combine(out, zSelf, zNeigh, workers)
			l.CombineGrad(dSelf, dNeigh, out, dOut, workers)
			gotDZ := mat.New(n, 2*f)
			for i := 0; i < n; i++ {
				copy(gotDZ.Row(i)[:f], dSelf.Row(i))
				copy(gotDZ.Row(i)[f:], dNeigh.Row(i))
			}
			for _, c := range []struct {
				name      string
				got, want *mat.Dense
			}{{"output", out, wantOut}, {"gradient", gotDZ, wantDZ}} {
				for i, v := range c.want.Data {
					if math.Float64bits(c.got.Data[i]) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(c.got.Data[i])) {
						t.Fatalf("activate=%t workers=%d: %s element %d = %v, want %v", activate, workers, c.name, i, c.got.Data[i], v)
					}
				}
			}
		}
	}
}
