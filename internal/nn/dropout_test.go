package nn

import (
	"math"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

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
