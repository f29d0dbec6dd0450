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

// TestWarmReorderedStepOnAllocations: a warmed StepOn whose first layer
// propagates its output (40 features, hidden 8, two layers) reads the
// features in place through the pair forms, which take their scratch
// from pools, so its allocation count per step — closures handed to the
// parallel regions, and small headers — is a ratchet: no higher than
// the count before the pair forms, measured at that commit (ba5188a)
// with this test's loop: 36 at Workers 1 and 68 at Workers 2. The
// collector is off while it counts, as in the test above; under the
// race detector the counts are logged, not held to the ceiling.
func TestWarmReorderedStepOnAllocations(t *testing.T) {
	ds := tinyDatasetOf(t, false, 40)
	for _, c := range []struct{ workers, ceiling int }{{1, 36}, {2, 68}} {
		cfg := tinyConfig()
		cfg.Hidden, cfg.Layers, cfg.Workers = 8, 2, c.workers
		tr := NewTrainer(ds, NewModel(ds, cfg))
		if !tr.Model.Layers[0].PropagatesOutput() {
			t.Fatal("the first layer does not propagate its output; the test would not reach the pair forms")
		}
		fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
		sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(5, 0))
		tr.StepOn(sub)
		tr.StepOn(sub)
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(50, func() { tr.StepOn(sub) })
		debug.SetGCPercent(gc)
		t.Logf("Workers %d: %v allocations per step", c.workers, allocs)
		if allocs > float64(c.ceiling) && !raceDetector {
			t.Errorf("a warm StepOn at Workers %d allocates %v objects, more than the ceiling %d", c.workers, allocs, c.ceiling)
		}
	}
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool
