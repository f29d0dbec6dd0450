package nn

import (
	"math"
	"testing"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

func TestAggregatorNames(t *testing.T) {
	if AggMean.String() != "mean" || AggSym.String() != "sym" || AggSum.String() != "sum" {
		t.Error("aggregator names wrong")
	}
	if Aggregator(99).String() != "unknown" {
		t.Error("unknown aggregator name")
	}
}

func TestAggSumSemantics(t *testing.T) {
	// Path 0-1-2: vertex 1 sums both neighbors.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src := mat.FromData(3, 1, []float64{1, 10, 100})
	dst := mat.New(3, 1)
	aggregate(dst, src, g, AggSum, nil, 1, 1)
	want := []float64{10, 101, 10}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("AggSum = %v, want %v", dst.Data, want)
		}
	}
}

func TestAggSymSemantics(t *testing.T) {
	// Path 0-1-2: deg = 1,2,1.
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	src := mat.FromData(3, 1, []float64{1, 1, 1})
	dst := mat.New(3, 1)
	aggregate(dst, src, g, AggSym, nil, 1, 1)
	s2 := 1 / math.Sqrt(2)
	want := []float64{s2, 2 * s2, s2}
	for i, w := range want {
		if math.Abs(dst.Data[i]-w) > 1e-12 {
			t.Fatalf("AggSym = %v, want %v", dst.Data, want)
		}
	}
}

func TestAggSymSelfAdjoint(t *testing.T) {
	ctx := testCtx(t, 14)
	r := rng.New(31)
	x := randMat(r, 14, 3)
	y := randMat(r, 14, 3)
	ax := mat.New(14, 3)
	ay := mat.New(14, 3)
	aggregate(ax, x, ctx.G, AggSym, nil, 2, 1)
	aggregateT(ay, y, ctx.G, AggSym, 2, 1)
	var left, right float64
	for i := range ax.Data {
		left += y.Data[i] * ax.Data[i]
		right += ay.Data[i] * x.Data[i]
	}
	if math.Abs(left-right) > 1e-9*(1+math.Abs(left)) {
		t.Errorf("<y,Ax>=%v != <A'y,x>=%v", left, right)
	}
}

func TestGCNLayerGradientAllAggregators(t *testing.T) {
	const n = 9
	for _, c := range gradCases(layerShapes) {
		in, out := c.in, c.out
		ctx := testGraphCtx(t, n, c.hub)
		r := rng.New(33)
		for _, agg := range []Aggregator{AggMean, AggSym, AggSum} {
			l := NewGCNLayer(in, out, r)
			l.Agg = agg
			l.Activate = false
			h := randMat(r, n, in)
			coeff := randMat(r, n, 2*out)
			eval := func() float64 { return objective(l.Forward(ctx, h), coeff) }
			eval()
			dh := l.Backward(ctx, coeff)
			for _, tc := range []struct {
				name     string
				analytic *mat.Dense
				variable *mat.Dense
			}{
				{"dH", dh, h},
				{"dWself", l.WSelf.Grad, l.WSelf.W},
				{"dWneigh", l.WNeigh.Grad, l.WNeigh.W},
			} {
				num := numericalGrad(tc.variable, eval)
				if d := tc.analytic.MaxAbsDiff(num); d > 1e-5 {
					t.Errorf("%d -> %d hub=%t %s: %s max diff %g", in, out, c.hub, agg, tc.name, d)
				}
			}
		}
	}
}

func TestDropoutMaskStatistics(t *testing.T) {
	r := rng.New(35)
	h := mat.New(100, 100)
	h.Fill(1)
	mask := dropoutInPlace(h, 0.3, r, nil)
	zeros := 0
	for i, v := range h.Data {
		switch v {
		case 0:
			zeros++
			if mask[i] != 0 {
				t.Fatal("mask nonzero for dropped element")
			}
		default:
			if math.Abs(v-1/0.7) > 1e-12 {
				t.Fatalf("survivor scaled to %v, want %v", v, 1/0.7)
			}
		}
	}
	frac := float64(zeros) / float64(len(h.Data))
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("dropped fraction %.3f, want ~0.30", frac)
	}
	// Expectation preserved: mean of surviving scaled values ~ 1.
	sum := 0.0
	for _, v := range h.Data {
		sum += v
	}
	if mean := sum / float64(len(h.Data)); math.Abs(mean-1) > 0.03 {
		t.Errorf("dropout mean %v, want ~1 (inverted scaling)", mean)
	}
}

func TestDropoutOnlyInTraining(t *testing.T) {
	ctx := testCtx(t, 10)
	r := rng.New(37)
	l := NewGCNLayer(4, 3, r)
	h := randMat(r, 10, 4)
	// Inference context: DropRate set but Train false -> deterministic.
	ctx.DropRate = 0.5
	ctx.Rng = rng.New(1)
	// Forward returns the layer's own buffer: clone what is compared.
	a := l.Forward(ctx, h).Clone()
	b := l.Forward(ctx, h)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("inference with Train=false is non-deterministic")
	}
	// Training context: outputs vary between calls.
	ctx.Train = true
	c := l.Forward(ctx, h).Clone()
	d := l.Forward(ctx, h)
	if c.MaxAbsDiff(d) == 0 {
		t.Fatal("dropout produced identical outputs on consecutive calls")
	}
	// Original features untouched (layer clones before masking).
	a2 := h.Clone()
	if h.MaxAbsDiff(a2) != 0 {
		t.Fatal("dropout mutated the caller's feature matrix")
	}
}

func TestDropoutBackwardAppliesMask(t *testing.T) {
	// With an extreme rate, most input gradients must be exactly zero
	// (masked), and the surviving ones scaled.
	ctx := testCtx(t, 10)
	r := rng.New(39)
	l := NewGCNLayer(4, 3, r)
	l.Activate = false
	ctx.Train = true
	ctx.DropRate = 0.9
	ctx.Rng = rng.New(2)
	h := randMat(r, 10, 4)
	l.Forward(ctx, h)
	dh := l.Backward(ctx, randMat(r, 10, 6))
	zeros := 0
	for _, v := range dh.Data {
		if v == 0 {
			zeros++
		}
	}
	if float64(zeros)/float64(len(dh.Data)) < 0.5 {
		t.Errorf("only %d/%d input grads masked at rate 0.9", zeros, len(dh.Data))
	}
}

func TestDropoutRequiresRng(t *testing.T) {
	ctx := testCtx(t, 6)
	ctx.Train = true
	ctx.DropRate = 0.5
	r := rng.New(41)
	l := NewGCNLayer(3, 2, r)
	defer func() {
		if recover() == nil {
			t.Fatal("dropout without Rng did not panic")
		}
	}()
	l.Forward(ctx, randMat(r, 6, 3))
}
