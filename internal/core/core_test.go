package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gsgcn/internal/datasets"
	"gsgcn/internal/nn"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

func tinyDataset(tb testing.TB, multi bool) *datasets.Dataset {
	tb.Helper()
	return tinyDatasetOf(tb, multi, 16)
}

// tinyDatasetOf is tinyDataset with features columns. At 40, more than
// twice tinyConfig's Hidden 16 and hidden 8, the first layer propagates
// its output (nn.GCNLayer.PropagatesOutput).
func tinyDatasetOf(tb testing.TB, multi bool, features int) *datasets.Dataset {
	tb.Helper()
	cfg := datasets.Config{
		Name: "tiny", Vertices: 600, TargetEdges: 6000,
		FeatureDim: features, NumClasses: 5, MultiLabel: multi,
		Homophily: 0.85, NoiseStd: 0.4, Seed: 3,
	}
	return datasets.Generate(cfg)
}

func tinyConfig() Config {
	return Config{
		Layers: 2, Hidden: 16, LR: 0.01,
		FrontierM: 40, Budget: 200, PInter: 2, Workers: 1, Seed: 5,
	}
}

func TestModelShapes(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	if m.Layers[0].InDim != 16 || m.Layers[0].OutDim != 16 {
		t.Errorf("layer0 dims %d->%d", m.Layers[0].InDim, m.Layers[0].OutDim)
	}
	// Layer 1 input = 2*hidden from concat.
	if m.Layers[1].InDim != 32 {
		t.Errorf("layer1 InDim = %d, want 32", m.Layers[1].InDim)
	}
	if m.Head.OutDim != 5 {
		t.Errorf("head OutDim = %d", m.Head.OutDim)
	}
	if m.NumParams() == 0 {
		t.Error("no parameters")
	}
	if !strings.Contains(m.String(), "L=2") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestLossSelection(t *testing.T) {
	if m := NewModel(tinyDataset(t, false), tinyConfig()); m.Loss.Name() != "softmax-ce" {
		t.Errorf("single-label model uses %s", m.Loss.Name())
	}
	if m := NewModel(tinyDataset(t, true), tinyConfig()); m.Loss.Name() != "sigmoid-bce" {
		t.Errorf("multi-label model uses %s", m.Loss.Name())
	}
}

func TestConfigDefaults(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := Config{}.withDefaults(ds)
	if cfg.Layers != 2 || cfg.Hidden != 128 || cfg.LR != 0.01 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Budget > ds.G.NumVertices() {
		t.Errorf("budget %d exceeds graph size", cfg.Budget)
	}
	if cfg.FrontierM > ds.G.NumVertices() {
		t.Errorf("frontier %d exceeds graph size", cfg.FrontierM)
	}
}

func TestTrainerLearnsSingleLabel(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	before := tr.Evaluate(ds.ValIdx)
	for e := 0; e < 10; e++ {
		tr.Epoch()
	}
	after := tr.Evaluate(ds.ValIdx)
	// Random chance on 5 balanced classes is 0.2.
	if after < 0.5 {
		t.Errorf("val F1 after training = %.3f (before %.3f); model failed to learn", after, before)
	}
	if after <= before {
		t.Errorf("val F1 did not improve: %.3f -> %.3f", before, after)
	}
}

func TestTrainerLearnsMultiLabel(t *testing.T) {
	ds := tinyDataset(t, true)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	for e := 0; e < 10; e++ {
		tr.Epoch()
	}
	after := tr.Evaluate(ds.ValIdx)
	if after < 0.4 {
		t.Errorf("multi-label val F1 = %.3f; model failed to learn", after)
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	first := tr.Epoch()
	var last float64
	for e := 0; e < 8; e++ {
		last = tr.Epoch()
	}
	if last >= first {
		t.Errorf("epoch loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestEpochStepCount(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	tr.Epoch()
	want := (600 + 199) / 200
	if tr.Steps() != want {
		t.Errorf("steps per epoch = %d, want %d", tr.Steps(), want)
	}
}

// TestTrainerTimerSegments pins the Timer segments a step charges:
// StepOn "featprop" and "weight", which Fig. 3D folds as its feature
// propagation and weight application, and "loss" and "optimizer",
// which it leaves in "other"; Step adds the "sampling" wait. A new
// trainer starts with an empty timer.
func TestTrainerTimerSegments(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := tinyConfig()
	tr := NewTrainer(ds, NewModel(ds, cfg))
	if segs := tr.Timer.Segments(); len(segs) != 0 {
		t.Fatalf("new trainer's timer holds %v", segs)
	}
	names := func() []string {
		var ns []string
		for name, d := range tr.Timer.Segments() {
			if d <= 0 {
				t.Errorf("segment %q charged %v", name, d)
			}
			ns = append(ns, name)
		}
		slices.Sort(ns)
		return ns
	}
	fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
	tr.StepOn(sampler.SampleSubgraph(ds.G, fr, rng.NewStream(5, 0)))
	if got, want := names(), []string{"featprop", "loss", "optimizer", "weight"}; !slices.Equal(got, want) {
		t.Errorf("StepOn charged %v, want %v", got, want)
	}
	tr.Step()
	if got, want := names(), []string{"featprop", "loss", "optimizer", "sampling", "weight"}; !slices.Equal(got, want) {
		t.Errorf("Step charged %v, want %v", got, want)
	}
}

func TestTrainerDeterministic(t *testing.T) {
	ds := tinyDataset(t, false)
	run := func() []float64 {
		m := NewModel(ds, tinyConfig())
		tr := NewTrainer(ds, m)
		var losses []float64
		for i := 0; i < 5; i++ {
			losses = append(losses, tr.Step())
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss sequences diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrainerWithAlternativeSamplers(t *testing.T) {
	ds := tinyDataset(t, false)
	for _, s := range []sampler.VertexSampler{
		&sampler.RandomNode{G: ds.G, Budget: 200},
		&sampler.RandomWalk{G: ds.G, Walkers: 20, Depth: 10},
		&sampler.ForestFire{G: ds.G, Budget: 200},
	} {
		m := NewModel(ds, tinyConfig())
		tr := NewTrainerWithSampler(ds, m, s)
		loss := tr.Step()
		if loss <= 0 {
			t.Errorf("%s: first-step loss = %v, want positive", s.Name(), loss)
		}
	}
}

func TestEvaluateBounds(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	f1 := tr.Evaluate(ds.TestIdx)
	if f1 < 0 || f1 > 1 {
		t.Fatalf("F1 = %v outside [0,1]", f1)
	}
}

func TestInferShape(t *testing.T) {
	ds := tinyDataset(t, false)
	logits := NewModel(ds, tinyConfig()).Infer(ds)
	if logits.Rows != ds.G.NumVertices() || logits.Cols != ds.NumClasses {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestDeeperModelTrains(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := tinyConfig()
	cfg.Layers = 3
	m := NewModel(ds, cfg)
	tr := NewTrainer(ds, m)
	first := tr.Step()
	var last float64
	for i := 0; i < 20; i++ {
		last = tr.Step()
	}
	if last >= first {
		t.Errorf("3-layer loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	ds := tinyDataset(b, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}

func TestRegularizedTraining(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := tinyConfig()
	cfg.DropRate = 0.2
	cfg.WeightDecay = 1e-4
	cfg.GradClip = 5
	m := NewModel(ds, cfg)
	tr := NewTrainer(ds, m)
	for e := 0; e < 10; e++ {
		tr.Epoch()
	}
	if f1 := tr.Evaluate(ds.ValIdx); f1 < 0.4 {
		t.Errorf("regularized training F1 %.3f, failed to learn", f1)
	}
}

func TestGradClipBehaviour(t *testing.T) {
	p := nn.NewParam("x", 1, 3)
	p.Grad.Data[0], p.Grad.Data[1], p.Grad.Data[2] = 3, 4, 0 // norm 5
	clipGradients([]*nn.Param{p}, 1)
	norm := math.Sqrt(p.Grad.Data[0]*p.Grad.Data[0] + p.Grad.Data[1]*p.Grad.Data[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("clipped norm = %v, want 1", norm)
	}
	// Below-threshold gradients untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.1, 0.1
	clipGradients([]*nn.Param{p}, 1)
	if p.Grad.Data[0] != 0.1 {
		t.Error("clip modified a small gradient")
	}
	// Zero gradient is a no-op.
	p.Grad.Zero()
	clipGradients([]*nn.Param{p}, 1)
}
