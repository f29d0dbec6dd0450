package baseline

import (
	"math"
	"slices"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/perf"
)

func tinyDataset(tb testing.TB, multi bool) *datasets.Dataset {
	tb.Helper()
	cfg := datasets.Config{
		Name: "tiny", Vertices: 600, TargetEdges: 6000,
		FeatureDim: 16, NumClasses: 5, MultiLabel: multi,
		Homophily: 0.85, NoiseStd: 0.4, Seed: 3,
	}
	return datasets.Generate(cfg)
}

func sageCfg() SAGEConfig {
	return SAGEConfig{Layers: 2, Hidden: 16, DLS: 5, Batch: 64, LR: 0.01, Seed: 7, Workers: 1}
}

func TestSAGENeighborExplosion(t *testing.T) {
	ds := tinyDataset(t, false)
	s := NewSAGE(ds, sageCfg())
	s.Step()
	// L=2, B=64, d=5: layer2=64, layer1=64*6, layer0=64*36.
	want := 64 + 64*6 + 64*36
	if s.LastBatchNodes != want {
		t.Fatalf("batch nodes = %d, want %d (neighbor explosion)", s.LastBatchNodes, want)
	}
}

func TestSAGEExplosionGrowsWithDepth(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := sageCfg()
	nodes := func(layers int) int {
		c := cfg
		c.Layers = layers
		s := NewSAGE(ds, c)
		s.Step()
		return s.LastBatchNodes
	}
	n1, n2, n3 := nodes(1), nodes(2), nodes(3)
	if !(n3 > 4*n2 && n2 > 4*n1) {
		t.Errorf("explosion missing: L1=%d L2=%d L3=%d", n1, n2, n3)
	}
}

func TestSAGELearns(t *testing.T) {
	ds := tinyDataset(t, false)
	s := NewSAGE(ds, sageCfg())
	first := s.Step()
	var last float64
	for i := 0; i < 40; i++ {
		last = s.Step()
	}
	if last >= first {
		t.Errorf("SAGE loss did not decrease: %.4f -> %.4f", first, last)
	}
	f1 := s.Evaluate(ds.ValIdx)
	if f1 < 0.4 {
		t.Errorf("SAGE val F1 = %.3f after 41 steps; failed to learn", f1)
	}
}

func TestSAGEMultiLabel(t *testing.T) {
	ds := tinyDataset(t, true)
	s := NewSAGE(ds, sageCfg())
	for i := 0; i < 30; i++ {
		s.Step()
	}
	if f1 := s.Evaluate(ds.ValIdx); f1 < 0.3 {
		t.Errorf("SAGE multi-label F1 = %.3f", f1)
	}
	if s.Steps() != 30 {
		t.Errorf("Steps = %d", s.Steps())
	}
}

func TestSAGEInferShape(t *testing.T) {
	ds := tinyDataset(t, false)
	s := NewSAGE(ds, sageCfg())
	logits := s.Model.Infer(ds)
	if logits.Rows != ds.G.NumVertices() || logits.Cols != ds.NumClasses {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestFullBatchLearns(t *testing.T) {
	ds := tinyDataset(t, false)
	fb := NewFullBatch(ds, core.Config{Layers: 2, Hidden: 16, LR: 0.02, Workers: 1, Seed: 9})
	first := fb.Step()
	var last float64
	for i := 0; i < 25; i++ {
		last = fb.Step()
	}
	if last >= first {
		t.Errorf("full-batch loss did not decrease: %.4f -> %.4f", first, last)
	}
	if f1 := fb.Evaluate(ds.ValIdx); f1 < 0.5 {
		t.Errorf("full-batch val F1 = %.3f", f1)
	}
	if fb.Steps() != 26 {
		t.Errorf("Steps = %d", fb.Steps())
	}
}

// TestSAGEDeterministic: the row-parallel gathers and the kernels
// under them give the same losses and weights, bit for bit, at every
// Workers setting.
func TestSAGEDeterministic(t *testing.T) {
	ds := tinyDataset(t, false)
	run := func(workers int) ([]uint64, *SAGE) {
		cfg := sageCfg()
		cfg.Workers = workers
		s := NewSAGE(ds, cfg)
		var out []uint64
		for i := 0; i < 3; i++ {
			out = append(out, math.Float64bits(s.Step()))
		}
		return out, s
	}
	want, ref := run(1)
	for _, w := range []int{2, 4} {
		got, s := run(w)
		if !slices.Equal(got, want) {
			t.Errorf("Workers %d: loss bits %x, Workers 1 %x", w, got, want)
		}
		if !sameWeights(s, ref) {
			t.Errorf("Workers %d: weights differ from Workers 1", w)
		}
	}
}

// TestRecordedSAGEStepIsTheStep: a SAGE step under perf.Record — every
// parallel region's chunks run one after another on the caller, each
// timed — gives the loss and weights, bit for bit, of the same step
// dispatched to the pool, and its gathers are regions tagged "gather".
func TestRecordedSAGEStepIsTheStep(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := sageCfg()
	cfg.Workers = 4
	plain, recorded := NewSAGE(ds, cfg), NewSAGE(ds, cfg)
	segs := map[string]int{}
	for i := 0; i < 3; i++ {
		want := plain.Step()
		var got float64
		for _, r := range perf.Record(func() { got = recorded.Step() }) {
			segs[r.Segment]++
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: recorded loss %v, unrecorded %v", i, got, want)
		}
	}
	if segs["gather"] == 0 || segs["gemm"] == 0 {
		t.Errorf("recorded regions by segment %v: want gather and gemm regions", segs)
	}
	if !sameWeights(recorded, plain) {
		t.Error("weights after the recorded steps differ from the unrecorded")
	}
}

// TestSAGEEpochStepsRoundsUp: an epoch is ceil(|train| / batch) steps,
// on a split that is not a multiple of the batch too, and a batch past
// the split is capped at it.
func TestSAGEEpochStepsRoundsUp(t *testing.T) {
	ds := tinyDataset(t, false)
	n := len(ds.TrainIdx)
	for _, c := range []struct{ batch, want int }{
		{n/2 + 1, 2}, {n - 1, 2}, {n, 1}, {10 * n, 1}, {1, n},
	} {
		cfg := sageCfg()
		cfg.Batch = c.batch
		if got := NewSAGE(ds, cfg).EpochSteps(); got != c.want {
			t.Errorf("|train| %d, batch %d: %d steps an epoch, want %d", n, c.batch, got, c.want)
		}
	}
}

// TestSAGEBatchCappedAtTrainSplit: a batch past the training split, the
// default batch on a split smaller than it, and a batch below one all
// become a batch the split can fill, and a step draws exactly that many
// targets.
func TestSAGEBatchCappedAtTrainSplit(t *testing.T) {
	ds := tinyDataset(t, false)
	n := len(ds.TrainIdx)
	if n >= 512 {
		t.Fatalf("|train| %d: the default batch 512 would not be capped", n)
	}
	for _, c := range []struct{ batch, want int }{
		{10 * n, n}, {n + 1, n}, {0, n}, {-3, 1}, {n - 1, n - 1},
	} {
		cfg := sageCfg()
		cfg.Layers, cfg.Batch = 1, c.batch
		s := NewSAGE(ds, cfg)
		if s.Cfg.Batch != c.want {
			t.Errorf("batch %d: capped to %d, want %d", c.batch, s.Cfg.Batch, c.want)
		}
		// One layer: the targets, then each with itself and DLS samples.
		s.Step()
		if want := c.want * (2 + cfg.DLS); s.LastBatchNodes != want {
			t.Errorf("batch %d: a step drew %d nodes, want %d", c.batch, s.LastBatchNodes, want)
		}
	}
}

// TestSAGETimerChargesItsSegments: an unrecorded step charges its time
// to exactly the segments the step profile (stepPhases) folds for the
// comparator — "sample", "gather" and "gemm" — and a new SAGE starts
// with an empty timer.
func TestSAGETimerChargesItsSegments(t *testing.T) {
	ds := tinyDataset(t, false)
	s := NewSAGE(ds, sageCfg())
	if segs := s.Timer.Segments(); len(segs) != 0 {
		t.Fatalf("new SAGE timer holds %v", segs)
	}
	s.Step()
	segs := s.Timer.Segments()
	var names []string
	for name := range segs {
		names = append(names, name)
	}
	slices.Sort(names)
	if want := []string{"gather", "gemm", "sample"}; !slices.Equal(names, want) {
		t.Errorf("segments %v, want %v", names, want)
	}
	if s.Timer.Total() <= 0 {
		t.Errorf("a step charged %v in all", s.Timer.Total())
	}
}

func sameWeights(a, b *SAGE) bool {
	pa, pb := a.Model.Params(), b.Model.Params()
	for i := range pa {
		for j, v := range pa[i].W.Data {
			if math.Float64bits(v) != math.Float64bits(pb[i].W.Data[j]) {
				return false
			}
		}
	}
	return true
}

func BenchmarkSAGEStep(b *testing.B) {
	ds := tinyDataset(b, false)
	s := NewSAGE(ds, sageCfg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestStepsWriteEveryGradient: both comparators' steps set every
// gradient of their core.Model rather than adding to it. A twin whose
// gradients are all NaN before every step gives the losses and weights,
// bit for bit, of one whose gradients are left as the last step set
// them.
func TestStepsWriteEveryGradient(t *testing.T) {
	ds := tinyDataset(t, false)
	fbCfg := core.Config{Layers: 2, Hidden: 16, LR: 0.02, Workers: 1, Seed: 9}
	for _, c := range []struct {
		name string
		make func() (*core.Model, func() float64)
	}{
		{"SAGE", func() (*core.Model, func() float64) {
			s := NewSAGE(ds, sageCfg())
			return s.Model, s.Step
		}},
		{"FullBatch", func() (*core.Model, func() float64) {
			f := NewFullBatch(ds, fbCfg)
			return f.Model, f.Step
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, plainStep := c.make()
			poisoned, poisonedStep := c.make()
			for i := 0; i < 4; i++ {
				for _, p := range poisoned.Params() {
					p.Grad.Fill(math.NaN())
				}
				want, got := plainStep(), poisonedStep()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v after poisoned gradients, %v without", i, got, want)
				}
				pa, pb := poisoned.Params(), plain.Params()
				for k := range pa {
					if !slices.EqualFunc(pa[k].W.Data, pb[k].W.Data, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
						t.Fatalf("step %d: %s differs after poisoned gradients", i, pa[k].Name)
					}
				}
			}
		})
	}
}
