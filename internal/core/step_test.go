package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// TestStepWritesEveryGradient: a backward pass sets every gradient
// rather than adding to it, so nothing needs clearing between steps. A
// trainer whose gradients are all NaN before every step gives the
// losses and weights, bit for bit, of one whose gradients are left as
// the last step set them — with dropout, weight decay, clipping and
// three layers, so every parameter and every path of the step is in it.
func TestStepWritesEveryGradient(t *testing.T) {
	ds := tinyDataset(t, true)
	cfg := tinyConfig()
	cfg.Layers, cfg.DropRate, cfg.WeightDecay, cfg.GradClip = 3, 0.2, 1e-3, 5
	plain := NewTrainer(ds, NewModel(ds, cfg))
	poisoned := NewTrainer(ds, NewModel(ds, cfg))
	for i := 0; i < 6; i++ {
		for _, p := range poisoned.Model.Params() {
			p.Grad.Fill(math.NaN())
		}
		want, got := plain.Step(), poisoned.Step()
		if math.Float64bits(got) != math.Float64bits(want) || want == 0 {
			t.Fatalf("step %d: loss %v after poisoned gradients, %v without", i, got, want)
		}
		if a, b := weightCRC(poisoned.Model), weightCRC(plain.Model); a != b {
			t.Fatalf("step %d: weights CRC %#x after poisoned gradients, %#x without", i, a, b)
		}
	}
}

// TestWarmStepOnAllocatesLessThanAnActivation: the layers own their
// outputs and gradients and reuse them, so a warmed StepOn on a fixed
// subgraph allocates — closures and small headers — fewer bytes than
// one n x 2·Hidden activation of that subgraph.
// The collector is off while it counts: a collection empties the
// sync.Pools of mat's GEMM scratch, whose refill is not the step's.
func TestWarmStepOnAllocatesLessThanAnActivation(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := tinyConfig()
	cfg.Hidden = 32
	tr := NewTrainer(ds, NewModel(ds, cfg))
	fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
	sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(5, 0))
	tr.StepOn(sub)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const steps = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < steps; i++ {
		tr.StepOn(sub)
	}
	runtime.ReadMemStats(&m1)
	perStep := (m1.TotalAlloc - m0.TotalAlloc) / steps
	activation := uint64(sub.N * 2 * cfg.Hidden * 8)
	t.Logf("%d bytes in %d allocations per step; one activation is %d bytes",
		perStep, (m1.Mallocs-m0.Mallocs)/steps, activation)
	if perStep >= activation {
		t.Errorf("a warm StepOn allocates %d bytes, one %d x %d activation is %d", perStep, sub.N, 2*cfg.Hidden, activation)
	}
}
