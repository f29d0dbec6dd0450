package nn

import (
	"math"
	"testing"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

func testCtx(tb testing.TB, n int) *Ctx {
	tb.Helper()
	return testGraphCtx(tb, n, false)
}

// testGraphCtx is testCtx's graph, a ring plus chords, which gives every
// vertex degree >= 2 — and, with hub, edges from vertex 0 to every even
// vertex. The ring alone is regular, and on a regular graph the mean
// aggregator is its own transpose; the hub's degrees tell them apart.
func testGraphCtx(tb testing.TB, n int, hub bool) *Ctx {
	tb.Helper()
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % n)})
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 3) % n)})
		if hub && i > 0 && i%2 == 0 {
			edges = append(edges, graph.Edge{U: 0, V: int32(i)})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return &Ctx{G: g, Q: 2, Workers: 1}
}

func randMat(r *rng.RNG, rows, cols int) *mat.Dense {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// objective contracts a matrix against fixed coefficients so we get a
// scalar function for numerical differentiation.
func objective(out, coeff *mat.Dense) float64 {
	s := 0.0
	for i := range out.Data {
		s += out.Data[i] * coeff.Data[i]
	}
	return s
}

func TestGCNLayerShapes(t *testing.T) {
	ctx := testCtx(t, 12)
	r := rng.New(1)
	l := NewGCNLayer(6, 4, r)
	h := randMat(r, 12, 6)
	out := l.Forward(ctx, h)
	if out.Rows != 12 || out.Cols != 8 {
		t.Fatalf("output shape %dx%d, want 12x8", out.Rows, out.Cols)
	}
	if l.OutWidth() != 8 {
		t.Errorf("OutWidth = %d, want 8", l.OutWidth())
	}
	dh := l.Backward(ctx, randMat(r, 12, 8))
	if dh.Rows != 12 || dh.Cols != 6 {
		t.Fatalf("input grad shape %dx%d, want 12x6", dh.Rows, dh.Cols)
	}
}

func TestGCNLayerReLUNonNegative(t *testing.T) {
	ctx := testCtx(t, 10)
	r := rng.New(2)
	l := NewGCNLayer(4, 3, r)
	out := l.Forward(ctx, randMat(r, 10, 4))
	for _, v := range out.Data {
		if v < 0 {
			t.Fatalf("ReLU output contains %v", v)
		}
	}
	l.Activate = false
	out = l.Forward(ctx, randMat(r, 10, 4))
	neg := false
	for _, v := range out.Data {
		if v < 0 {
			neg = true
		}
	}
	if !neg {
		t.Error("deactivated layer produced no negative values; suspicious")
	}
}

// numericalGrad computes d objective / d x[i] by central differences.
func numericalGrad(x *mat.Dense, eval func() float64) *mat.Dense {
	const eps = 1e-6
	g := mat.New(x.Rows, x.Cols)
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		fp := eval()
		x.Data[i] = orig - eps
		fm := eval()
		x.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * eps)
	}
	return g
}

// layerShapes are the (in, out) shapes the layer tests run: one a layer
// propagates its input at, one it propagates its output at (2·out < in).
var layerShapes = [][2]int{{5, 3}, {11, 3}}

// gradCase is a layer shape and a test graph of the numerical gradient
// checks.
type gradCase struct {
	in, out int
	hub     bool
}

// gradCases pairs every shape with testCtx's regular graph and with
// the hub graph, where a propagation that should be transposed and is
// not gives a wrong gradient.
func gradCases(shapes [][2]int) []gradCase {
	var cs []gradCase
	for _, s := range shapes {
		cs = append(cs, gradCase{s[0], s[1], false}, gradCase{s[0], s[1], true})
	}
	return cs
}

func TestPropagatesOutputRule(t *testing.T) {
	for _, c := range []struct {
		in, out int
		want    bool
	}{{5, 3, false}, {11, 3, true}, {16, 8, false}, {17, 8, true}, {602, 8, true}, {50, 128, false}, {256, 128, false}, {6, 3, false}, {7, 3, true}} {
		if got := (&GCNLayer{InDim: c.in, OutDim: c.out}).PropagatesOutput(); got != c.want {
			t.Errorf("%d -> %d: PropagatesOutput = %t, want %t", c.in, c.out, got, c.want)
		}
	}
}

func TestGCNLayerGradientNumeric(t *testing.T) {
	const n = 9
	for _, c := range gradCases(layerShapes) {
		in, out := c.in, c.out
		ctx := testGraphCtx(t, n, c.hub)
		r := rng.New(3)
		l := NewGCNLayer(in, out, r)
		l.Activate = false // keep the objective smooth for central differences
		h := randMat(r, n, in)
		coeff := randMat(r, n, 2*out)

		eval := func() float64 { return objective(l.Forward(ctx, h), coeff) }

		eval() // populate caches
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
				t.Errorf("%d -> %d hub=%t %s: max |analytic - numeric| = %g", in, out, c.hub, tc.name, d)
			}
		}
	}
}

func TestGCNLayerGradientNumericWithReLU(t *testing.T) {
	// With ReLU active the objective is piecewise linear; points on a
	// kink are measure-zero, so central differences still agree.
	const n = 8
	for _, c := range gradCases([][2]int{{4, 2}, {11, 3}}) {
		in, out := c.in, c.out
		ctx := testGraphCtx(t, n, c.hub)
		r := rng.New(4)
		l := NewGCNLayer(in, out, r)
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
				t.Errorf("%d -> %d hub=%t %s with ReLU: max diff %g", in, out, c.hub, tc.name, d)
			}
		}
	}
}

func TestDenseGradientNumeric(t *testing.T) {
	const n, in, out = 7, 6, 4
	ctx := testCtx(t, n)
	r := rng.New(5)
	d := NewDense(in, out, r)
	h := randMat(r, n, in)
	coeff := randMat(r, n, out)
	eval := func() float64 { return objective(d.Forward(ctx, h), coeff) }
	eval()
	dh := d.Backward(ctx, coeff)
	for _, tc := range []struct {
		name     string
		analytic *mat.Dense
		variable *mat.Dense
	}{
		{"dH", dh, h},
		{"dW", d.W.Grad, d.W.W},
		{"dB", d.B.Grad, d.B.W},
	} {
		num := numericalGrad(tc.variable, eval)
		if diff := tc.analytic.MaxAbsDiff(num); diff > 1e-5 {
			t.Errorf("%s: max diff %g", tc.name, diff)
		}
	}
}

func TestSigmoidBCEGradientNumeric(t *testing.T) {
	r := rng.New(6)
	logits := randMat(r, 6, 5)
	labels := mat.New(6, 5)
	for i := range labels.Data {
		if r.Float64() < 0.4 {
			labels.Data[i] = 1
		}
	}
	mask := []int{0, 2, 5}
	var loss Loss = SigmoidBCE{}
	dl := mat.New(6, 5)
	loss.Eval(logits, labels, mask, dl)
	num := numericalGrad(logits, func() float64 {
		tmp := mat.New(6, 5)
		return loss.Eval(logits, labels, mask, tmp)
	})
	if d := dl.MaxAbsDiff(num); d > 1e-6 {
		t.Errorf("BCE gradient: max diff %g", d)
	}
	// Unmasked rows must have zero gradient.
	for j := 0; j < 5; j++ {
		if dl.At(1, j) != 0 {
			t.Error("masked-out row has non-zero gradient")
		}
	}
}

func TestSoftmaxCEGradientNumeric(t *testing.T) {
	r := rng.New(7)
	logits := randMat(r, 5, 4)
	labels := mat.New(5, 4)
	for i := 0; i < 5; i++ {
		labels.Set(i, r.Intn(4), 1)
	}
	var loss Loss = SoftmaxCE{}
	dl := mat.New(5, 4)
	loss.Eval(logits, labels, nil, dl)
	num := numericalGrad(logits, func() float64 {
		tmp := mat.New(5, 4)
		return loss.Eval(logits, labels, nil, tmp)
	})
	if d := dl.MaxAbsDiff(num); d > 1e-6 {
		t.Errorf("softmax CE gradient: max diff %g", d)
	}
}

// TestSoftmaxCEMaskedAllocatesNothing: a training step's loss (a
// non-nil mask) stages its exponentials in dLogits, not in a slice of
// its own, and gets the bits of the separate-buffer form.
func TestSoftmaxCEMaskedAllocatesNothing(t *testing.T) {
	r := rng.New(11)
	logits := randMat(r, 40, 41)
	labels := mat.New(40, 41)
	for i := 0; i < 40; i++ {
		labels.Set(i, r.Intn(41), 1)
	}
	mask := []int{0, 3, 4, 17, 39}
	dl := mat.New(40, 41)
	loss := SoftmaxCE{}.Eval(logits, labels, mask, dl)
	if a := testing.AllocsPerRun(20, func() { SoftmaxCE{}.Eval(logits, labels, mask, dl) }); a != 0 {
		t.Errorf("SoftmaxCE.Eval allocates %v times per call, want 0", a)
	}

	want, wantLoss := mat.New(40, 41), 0.0
	probs := make([]float64, 41)
	for _, i := range mask {
		zrow := logits.Row(i)
		maxZ := zrow[0]
		for _, z := range zrow[1:] {
			if z > maxZ {
				maxZ = z
			}
		}
		sum := 0.0
		for j, z := range zrow {
			probs[j] = math.Exp(z - maxZ)
			sum += probs[j]
		}
		for j := range zrow {
			want.Set(i, j, (probs[j]/sum-labels.At(i, j))*(1/float64(len(mask))))
			if labels.At(i, j) == 1 {
				wantLoss += math.Log(sum) + maxZ - zrow[j]
			}
		}
	}
	wantLoss *= 1 / float64(len(mask))
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Errorf("loss %v, want %v", loss, wantLoss)
	}
	for k := range dl.Data {
		if math.Float64bits(dl.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("dLogits[%d] = %v, want %v", k, dl.Data[k], want.Data[k])
		}
	}
}

func TestLossPerfectPrediction(t *testing.T) {
	labels := mat.FromData(2, 3, []float64{1, 0, 0, 0, 1, 0})
	confident := mat.FromData(2, 3, []float64{30, -30, -30, -30, 30, -30})
	dl := mat.New(2, 3)
	if l := (SigmoidBCE{}).Eval(confident, labels, nil, dl); l > 1e-6 {
		t.Errorf("BCE on perfect confident prediction = %g", l)
	}
	if l := (SoftmaxCE{}).Eval(confident, labels, nil, dl); l > 1e-6 {
		t.Errorf("CE on perfect confident prediction = %g", l)
	}
}

func TestLossEmptyMask(t *testing.T) {
	logits := mat.New(3, 2)
	labels := mat.New(3, 2)
	dl := mat.New(3, 2)
	dl.Fill(9)
	if l := (SigmoidBCE{}).Eval(logits, labels, []int{}, dl); l != 0 {
		t.Errorf("empty-mask loss = %v", l)
	}
	for _, v := range dl.Data {
		if v != 0 {
			t.Fatal("empty-mask gradient not cleared")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := mat.FromData(1, 3, []float64{1e4, -1e4, 0})
	labels := mat.FromData(1, 3, []float64{1, 0, 0})
	dl := mat.New(1, 3)
	l := (SoftmaxCE{}).Eval(logits, labels, nil, dl)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("loss overflow: %v", l)
	}
	for _, v := range dl.Data {
		if math.IsNaN(v) {
			t.Fatal("gradient NaN under extreme logits")
		}
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	p := NewParam("x", 1, 4)
	for i := range p.W.Data {
		p.W.Data[i] = 5
	}
	target := []float64{1, -2, 3, 0}
	opt := NewAdam(0.05)
	for step := 0; step < 2000; step++ {
		for i := range p.W.Data {
			p.Grad.Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i, want := range target {
		if math.Abs(p.W.Data[i]-want) > 0.01 {
			t.Errorf("param %d = %v, want %v", i, p.W.Data[i], want)
		}
	}
	if opt.Steps() != 2000 {
		t.Errorf("Steps = %d", opt.Steps())
	}
}

func TestGlorotInitBounds(t *testing.T) {
	r := rng.New(8)
	p := NewParam("w", 30, 20)
	p.GlorotInit(r)
	limit := math.Sqrt(6.0 / 50.0)
	nonzero := 0
	for _, v := range p.W.Data {
		if math.Abs(v) > limit {
			t.Fatalf("weight %v exceeds Glorot limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(p.W.Data)/2 {
		t.Error("Glorot init left most weights zero")
	}
}

func TestPredictMultiAndSingle(t *testing.T) {
	logits := mat.FromData(2, 3, []float64{2, -1, 0.5, -3, -2, -1})
	multi := PredictMulti(logits)
	wantMulti := []float64{1, 0, 1, 0, 0, 0}
	for i, w := range wantMulti {
		if multi.Data[i] != w {
			t.Fatalf("PredictMulti = %v", multi.Data)
		}
	}
	single := PredictSingle(logits)
	wantSingle := []float64{1, 0, 0, 0, 0, 1}
	for i, w := range wantSingle {
		if single.Data[i] != w {
			t.Fatalf("PredictSingle = %v", single.Data)
		}
	}
}

func TestF1MicroHandCase(t *testing.T) {
	pred := mat.FromData(2, 2, []float64{1, 0, 1, 1})
	labels := mat.FromData(2, 2, []float64{1, 1, 0, 1})
	// tp=2 (0,0 and 1,1), fp=1 (1,0), fn=1 (0,1): F1 = 4/(4+1+1) = 2/3.
	got := F1Micro(pred, labels, nil)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("F1Micro = %v, want 2/3", got)
	}
}

func TestF1MicroPerfectAndZero(t *testing.T) {
	labels := mat.FromData(2, 2, []float64{1, 0, 0, 1})
	if got := F1Micro(labels, labels, nil); got != 1 {
		t.Errorf("perfect F1 = %v", got)
	}
	zero := mat.New(2, 2)
	if got := F1Micro(zero, labels, nil); got != 0 {
		t.Errorf("all-negative F1 = %v", got)
	}
}

func TestF1MicroRowsSubset(t *testing.T) {
	pred := mat.FromData(2, 2, []float64{1, 0, 0, 0})
	labels := mat.FromData(2, 2, []float64{1, 0, 1, 1})
	if got := F1Micro(pred, labels, []int{0}); got != 1 {
		t.Errorf("subset F1 = %v, want 1", got)
	}
}

// TestLossNamesAndShapeCheck: each criterion reports its name, and
// each refuses a dLogits whose shape differs from the logits'.
func TestLossNamesAndShapeCheck(t *testing.T) {
	for _, tc := range []struct {
		loss Loss
		name string
	}{{SigmoidBCE{}, "sigmoid-bce"}, {SoftmaxCE{}, "softmax-ce"}} {
		if got := tc.loss.Name(); got != tc.name {
			t.Errorf("Name() = %q, want %q", got, tc.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Eval with a 2x3 dLogits for 2x2 logits did not panic", tc.name)
				}
			}()
			tc.loss.Eval(mat.New(2, 2), mat.New(2, 2), nil, mat.New(2, 3))
		}()
	}
}

func TestTimerSegmentsCharged(t *testing.T) {
	ctx := testCtx(t, 10)
	tm := newTimer()
	ctx.Timer = tm
	r := rng.New(9)
	l := NewGCNLayer(4, 3, r)
	out := l.Forward(ctx, randMat(r, 10, 4))
	l.Backward(ctx, out)
	seg := tm.Segments()
	if seg["featprop"] <= 0 || seg["weight"] <= 0 {
		t.Errorf("timer segments missing: %v", seg)
	}
}
