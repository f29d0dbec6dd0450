package nn

// Bit-exactness suite for the parallel nn kernels: forward
// aggregation, full layer forward/backward and the dense head must
// produce element-identical outputs and gradients at every Workers
// (and feature-partition Q) setting. Run with -race to exercise the
// sharded paths under the race detector.

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
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
	want := mat.New(n, f)
	partition.PropagateList(want, src, ctx.G, partition.NormDst, nil, 1, 1)
	wantT := mat.New(n, f)
	partition.Propagate(wantT, src, ctx.G, partition.NormSrc, 1, 1)
	for _, q := range []int{1, 2, 5, f, f + 10} {
		for _, w := range []int{1, 2, 8} {
			got := mat.New(n, f)
			partition.PropagateList(got, src, ctx.G, partition.NormDst, nil, q, w)
			requireSame(t, "mean", got, want)
			gotT := mat.New(n, f)
			partition.Propagate(gotT, src, ctx.G, partition.NormSrc, q, w)
			requireSame(t, "mean/T", gotT, wantT)
		}
	}
}

// layerPass runs one forward+backward through a freshly initialized
// in -> out layer and head at the given worker count and returns
// everything a training step derives from the kernels: output, input
// gradient and parameter gradients.
func layerPass(t *testing.T, in, out, workers int) []*mat.Dense {
	t.Helper()
	const n = 21
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

// exactShapes are the (in, out) layer shapes of the bit-exactness
// tests: 9 -> 5 propagates the input, 11 -> 3 the output.
var exactShapes = [][2]int{{9, 5}, {11, 3}}

func TestLayerForwardBackwardBitExactAcrossWorkers(t *testing.T) {
	for _, shape := range exactShapes {
		want := layerPass(t, shape[0], shape[1], 1)
		for _, workers := range []int{2, 8} {
			got := layerPass(t, shape[0], shape[1], workers)
			for i := range want {
				requireSame(t, fmt.Sprintf("%d -> %d pass output %d", shape[0], shape[1], i), got[i], want[i])
			}
		}
	}
}

// TestBackwardParamsMatchesBackward: the parameters-only backward the
// model uses for its first layer accumulates exactly the gradients of
// the full Backward, with dropout on so the mask path is covered.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	const n = 21
	for _, shape := range exactShapes {
		in, out := shape[0], shape[1]
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
				t.Fatalf("%d -> %d: gradient %d is zero: the comparison would be vacuous", in, out, i)
			}
			requireSame(t, fmt.Sprintf("%d -> %d BackwardParams gradient", in, out), got[i], want[i])
		}
	}
}

// TestRowsGetTheEveryRowPassBits: a layer under Ctx.Rows gives the
// listed rows of its output the every-row pass's bits and +0 to the
// others, and from an output gradient that is +0 off the list (as a
// masked loss leaves it) the every-row pass's parameter and input
// gradients — for a layer that propagates its input and one that
// propagates its output, with dropout on, at 1 and 3 workers. The
// second never holds the n x InDim propagated input.
func TestRowsGetTheEveryRowPassBits(t *testing.T) {
	const n = 23
	rows := []int{0, 4, 5, 6, 13, 22}
	same := func(tag string, got, want *mat.Dense) {
		t.Helper()
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: element %d = %v, every-row pass %v", tag, i, got.Data[i], v)
			}
		}
	}
	for _, shape := range exactShapes {
		in, out := shape[0], shape[1]
		for _, workers := range []int{1, 3} {
			pass := func(list []int) []*mat.Dense {
				ctx := testCtx(t, n)
				ctx.Q, ctx.Workers = 3, workers
				ctx.Train, ctx.DropRate, ctx.Rng = true, 0.3, rng.New(9)
				ctx.Rows = list
				r := rng.New(21)
				layer := NewGCNLayer(in, out, r)
				h := randMat(r, n, in)
				dOut := mat.New(n, layer.OutWidth())
				for _, i := range rows {
					copy(dOut.Row(i), randMat(r, 1, layer.OutWidth()).Data)
				}
				z := layer.Forward(ctx, h).Clone()
				dH := layer.Backward(ctx, dOut)
				if layer.PropagatesOutput() != (layer.lastHNeigh == nil) {
					t.Fatalf("%d -> %d: PropagatesOutput %t, yet the propagated input is held: %t",
						in, out, layer.PropagatesOutput(), layer.lastHNeigh != nil)
				}
				return []*mat.Dense{z, dH, layer.WSelf.Grad, layer.WNeigh.Grad}
			}
			every, listed := pass(nil), pass(rows)
			tag := fmt.Sprintf("%d -> %d workers=%d", in, out, workers)
			onList := make([]bool, n)
			for _, i := range rows {
				onList[i] = true
			}
			wantZ := every[0].Clone()
			for i := 0; i < n; i++ {
				if !onList[i] {
					clear(wantZ.Row(i))
				}
			}
			same(tag+" output", listed[0], wantZ)
			for i, name := range []string{"dH", "dWself", "dWneigh"} {
				if every[i+1].FrobeniusNorm() == 0 {
					t.Fatalf("%s: %s is zero: the comparison would be vacuous", tag, name)
				}
				same(tag+" "+name, listed[i+1], every[i+1])
			}
		}
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

// TestInRowsGetTheGatheredBits: a layer handed a table and Ctx.InRows
// gives the bits of one handed the rows gathered — output, input
// gradient and both weight gradients — whether it reads them in place
// (it propagates its output, takes both products on every row and
// applies no dropout: 11 -> 3 through the pair forms' gathered
// fallback, 20 -> 8 through the fused kernels) or gathers them itself
// (9 -> 5, which propagates its input, and any layer under dropout or
// given a row list), over a list in no order with repeats, at Workers 1
// and 3. Under a row list a NaN in an unlisted vertex's row of the
// table reaches no element of dW_self, as on the gathered rows.
func TestInRowsGetTheGatheredBits(t *testing.T) {
	const n, tableRows = 23, 31
	rows := []int{0, 4, 5, 6, 13, 22}
	r := rng.New(33)
	in := make([]int, n)
	for i := range in {
		in[i] = r.Intn(tableRows - 1) // the last row is the NaN case's alone
	}
	in[7] = in[3]
	for _, shape := range append(exactShapes, [2]int{20, 8}) {
		for _, drop := range []float64{0, 0.3} {
			for _, list := range [][]int{nil, rows} {
				for _, workers := range []int{1, 3} {
					tag := fmt.Sprintf("%d -> %d drop=%v rows=%v workers=%d", shape[0], shape[1], drop, list, workers)
					table := randMat(rng.New(41), tableRows, shape[0])
					if list != nil {
						in[9] = tableRows - 1 // vertex 9 is not listed
						for c := range table.Row(tableRows - 1) {
							table.Row(tableRows - 1)[c] = math.NaN()
						}
					}
					pass := func(h *mat.Dense, inRows []int) []*mat.Dense {
						ctx := testCtx(t, n)
						ctx.Q, ctx.Workers, ctx.Rows, ctx.InRows = 3, workers, list, inRows
						ctx.Train, ctx.DropRate, ctx.Rng = drop > 0, drop, rng.New(9)
						r := rng.New(21)
						layer := NewGCNLayer(shape[0], shape[1], r)
						dOut := randMat(r, n, layer.OutWidth())
						z := layer.Forward(ctx, h).Clone()
						dH := layer.Backward(ctx, dOut)
						return []*mat.Dense{z, dH, layer.WSelf.Grad, layer.WNeigh.Grad}
					}
					g := mat.New(n, shape[0])
					mat.GatherRows(g, table, in)
					want, got := pass(g, nil), pass(table, in)
					for i, name := range []string{"output", "dH", "dWself", "dWneigh"} {
						for j, v := range want[i].Data {
							if w := got[i].Data[j]; math.Float64bits(w) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(w)) {
								t.Fatalf("%s: %s element %d = %v, gathered rows %v", tag, name, j, w, v)
							}
						}
					}
					if list != nil {
						for j, v := range got[2].Data {
							if math.IsNaN(v) {
								t.Fatalf("%s: dWself element %d is NaN: an unlisted row reached it", tag, j)
							}
						}
					}
				}
			}
		}
	}
}
