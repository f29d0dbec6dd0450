package gsgcn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gsgcn/internal/perf"
)

func TestLoadPreset(t *testing.T) {
	ds, err := LoadPreset("ppi", 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Name != "ppi" || !ds.MultiLabel {
		t.Errorf("preset mismatch: %s multi=%v", ds.Name, ds.MultiLabel)
	}
}

func TestLoadPresetErrors(t *testing.T) {
	if _, err := LoadPreset("nope", 1, 0); err == nil {
		t.Error("unknown preset should error")
	}
	if _, err := LoadPreset("ppi", -1, 0); err == nil {
		t.Error("negative scale should error")
	}
}

func TestPublicTrainingRoundTrip(t *testing.T) {
	ds := GenerateDataset(DatasetConfig{
		Name: "pub", Vertices: 500, TargetEdges: 5000,
		FeatureDim: 12, NumClasses: 4, Homophily: 0.85, Seed: 2,
	})
	model := NewModel(ds, Config{Layers: 2, Hidden: 12, FrontierM: 30, Budget: 150, Workers: 1, Seed: 3})
	tr := NewTrainer(ds, model)
	for e := 0; e < 8; e++ {
		tr.Epoch()
	}
	if f1 := tr.Evaluate(ds.ValIdx); f1 < 0.5 {
		t.Errorf("public API training reached F1 %.3f only", f1)
	}
}

func TestSamplersFamily(t *testing.T) {
	ds, err := LoadPreset("ppi", 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	fam := Samplers(ds.G, 200)
	want := []string{"frontier", "random-node", "random-edge", "random-walk", "forest-fire", "node2vec", "edge-induced"}
	for _, name := range want {
		s, ok := fam[name]
		if !ok {
			t.Fatalf("missing sampler %q", name)
		}
		sub := Sample(ds.G, s, 7)
		if sub.N == 0 {
			t.Errorf("%s sampled empty subgraph", name)
		}
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", quickOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Errorf("table1 output missing header: %q", buf.String())
	}
	if err := RunExperiment("bogus", quickOptions(), &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable1Quick(t *testing.T) {
	r, err := RunTable1(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0].Name != "ppi" {
		t.Fatalf("rows = %+v", r.Rows)
	}
	row := r.Rows[0]
	if row.PaperV != 14755 || row.PaperE != 225270 {
		t.Errorf("paper reference wrong: %+v", row)
	}
	if row.GenV <= 0 || row.GenE <= 0 || row.AttrDim != 50 || row.Classes != 121 {
		t.Errorf("generated stats wrong: %+v", row)
	}
	if !strings.Contains(r.String(), "ppi") {
		t.Error("String() missing dataset name")
	}
}

func TestFig2Quick(t *testing.T) {
	o := quickOptions()
	o.Epochs = 3
	r, err := RunFig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 1 {
		t.Fatalf("datasets = %d", len(r.Datasets))
	}
	d := r.Datasets[0]
	if len(d.Series) != 3 {
		t.Fatalf("series = %d, want 3 methods", len(d.Series))
	}
	for _, s := range d.Series {
		if len(s.Points) != o.Epochs {
			t.Errorf("%s has %d points, want %d", s.Method, len(s.Points), o.Epochs)
		}
		last := 0.0
		for _, p := range s.Points {
			if p.Seconds < last {
				t.Errorf("%s time not monotone", s.Method)
			}
			last = p.Seconds
			if p.F1 < 0 || p.F1 > 1 {
				t.Errorf("%s F1 %v out of range", s.Method, p.F1)
			}
		}
	}
	if d.PaperSpeedup != 1.9 {
		t.Errorf("paper speedup for ppi = %v", d.PaperSpeedup)
	}
	if !strings.Contains(r.String(), "proposed") {
		t.Error("String() missing method name")
	}
}

// TestFig3Quick runs Fig. 3 on the recorded training step. The quick
// scale's ppi graph (484 vertices) caps the step's budget at 200
// vertices, where the serial optimizer and loss outweigh the parallel
// kernels; at scale 0.25 the step samples the quick cap of 400. On a
// two-thread Xeon host the p = 4 iteration speedup read 1.2-1.3x at
// the quick scale and ~1.9x at 0.25.
func TestFig3Quick(t *testing.T) {
	o := quickOptions()
	o.Scale = 0.25
	r, err := RunFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 1 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	c := r.Curves[0]
	if len(c.Points) != 2 {
		t.Fatalf("points = %d", len(c.Points))
	}
	p1, p4 := c.Points[0], c.Points[1]
	if p1.Cores != 1 || p4.Cores != 4 {
		t.Fatalf("cores = %d,%d", p1.Cores, p4.Cores)
	}
	if math.Abs(p1.IterSpeedup-1) > 0.05 {
		t.Errorf("1-core iteration speedup = %.3f, want ~1", p1.IterSpeedup)
	}
	if p4.IterSpeedup < 1.5 {
		t.Errorf("4-core iteration speedup = %.3f, want > 1.5", p4.IterSpeedup)
	}
	if p4.FeatSpeedup < 1.5 || p4.WeightSpeedup < 1.5 {
		t.Errorf("component speedups too low: feat %.2f weight %.2f", p4.FeatSpeedup, p4.WeightSpeedup)
	}
	for _, p := range c.Points {
		// Four shares: sampling, feature propagation, weight, other.
		var sum float64
		for _, f := range p.Breakdown {
			if f < 0 || f > 1 {
				t.Errorf("%d cores: breakdown fraction %v out of range", p.Cores, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%d cores: four shares %v sum to %v", p.Cores, p.Breakdown, sum)
		}
	}
	// The measured step: one entry per worker count the host has, up
	// to the largest simulated one, the first the serial reference.
	if want := min(perf.NumWorkers(), 4); len(c.Real) != want {
		t.Fatalf("measured entries = %d, want %d", len(c.Real), want)
	}
	for i, x := range c.Real {
		if x.Workers != i+1 || !(x.Measured > 0) || !(x.Simulated > 0) {
			t.Errorf("measured entry %d = %+v", i, x)
		}
	}
	if x := c.Real[0]; x.Measured != 1 || x.Simulated != 1 {
		t.Errorf("one worker: measured %v, simulated %v; want 1 and 1", x.Measured, x.Simulated)
	}
	if s := r.String(); !strings.Contains(s, "/other") || !strings.Contains(s, "on real cores") {
		t.Errorf("report lacks the other share or the measured step:\n%s", s)
	}
}

// TestEpochStepsCountsTheSteppedBudget: Table II charges our epoch as
// |V| over the budget its recorded step actually sampled — capped at
// fig3Budget, 400 under Quick — not trainParams' uncapped |V|/8.
func TestEpochStepsCountsTheSteppedBudget(t *testing.T) {
	for _, c := range []struct {
		v     int
		quick bool
		want  float64
	}{
		{100000, false, 50}, // |V|/8 = 12500, capped at 2000
		{16000, false, 8},   // budget 2560 (8 × the frontier), capped at 2000
		{8000, true, 20},    // budget 1280, capped at 400
		{8000, false, 6.25}, // budget 1280, under the cap
		{484, true, 2.42},   // budget 200
		{59, true, 1},       // the budget is the graph
	} {
		if got := epochSteps(c.v, c.quick); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("epochSteps(%d, quick=%v) = %v, want %v", c.v, c.quick, got, c.want)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	r, err := RunFig4(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.A) != 1 || len(r.B) != 1 {
		t.Fatalf("series A=%d B=%d", len(r.A), len(r.B))
	}
	a := r.A[0]
	if a.Speedups[0] < 0.5 || a.Speedups[0] > 1.5 {
		t.Errorf("p_inter=1 speedup = %.2f, want ~1", a.Speedups[0])
	}
	if a.Speedups[1] <= a.Speedups[0] {
		t.Errorf("speedup not increasing with p_inter: %v", a.Speedups)
	}
	for _, g := range r.B[0].Gains {
		if g < 1 || g > 8 {
			t.Errorf("lane gain %v outside (1, 8]", g)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	r, err := RunTable2(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedups) != len(r.Layers) {
		t.Fatalf("rows = %d, layers = %d", len(r.Speedups), len(r.Layers))
	}
	// Deeper GCN must widen the gap (neighbor explosion).
	lastLayerRow := r.Speedups[len(r.Speedups)-1]
	firstLayerRow := r.Speedups[0]
	if lastLayerRow[0] <= firstLayerRow[0] {
		t.Errorf("speedup does not grow with depth: L1 %.2f vs L%d %.2f",
			firstLayerRow[0], r.Layers[len(r.Layers)-1], lastLayerRow[0])
	}
	// Explosion is visible in the baseline batch node counts.
	if len(r.BatchNodes) >= 2 && r.BatchNodes[1] <= r.BatchNodes[0] {
		t.Errorf("batch nodes not exploding: %v", r.BatchNodes)
	}
	if !strings.Contains(r.String(), "Table II") {
		t.Error("String() missing header")
	}
}

func TestTheorem1Quick(t *testing.T) {
	r, err := RunTheorem1(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ProbeRate) != len(r.Etas) {
		t.Fatalf("probe rates = %d", len(r.ProbeRate))
	}
	// Probe rate should grow with eta (sparser dashboard).
	if r.ProbeRate[len(r.ProbeRate)-1] < r.ProbeRate[0] {
		t.Errorf("probe rate not increasing with eta: %v", r.ProbeRate)
	}
	// Cleanups should shrink with eta.
	if r.Cleanups[0] < r.Cleanups[len(r.Cleanups)-1] {
		t.Errorf("cleanups not decreasing with eta: %v", r.Cleanups)
	}
}

func TestTheorem2Quick(t *testing.T) {
	r, err := RunTheorem2(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.ApproxRatio > 2+1e-9 && r.Feasible {
		t.Errorf("feasible config with approx ratio %.3f > 2", r.ApproxRatio)
	}
	if r.VolumeFOnly < r.LowerBound {
		t.Errorf("volume %.0f below lower bound %.0f", r.VolumeFOnly, r.LowerBound)
	}
	if r.VolumeBest > 0 && r.VolumeFOnly > 2*r.VolumeBest*(1+1e-9) {
		t.Errorf("feature-only exceeds 2x optimum: %.0f vs %.0f", r.VolumeFOnly, r.VolumeBest)
	}
	if r.Q < 1 || r.PaperQ < 1 || !(r.QMS > 0) || !(r.PaperMS > 0) {
		t.Errorf("executed Q=%d (%v ms), paper's Q=%d (%v ms): want counts >= 1 and measured times", r.Q, r.QMS, r.PaperQ, r.PaperMS)
	}
	if s := r.String(); !strings.Contains(s, "paper's Q=") || !strings.Contains(s, "executed Q=") {
		t.Errorf("report does not print both Qs:\n%s", s)
	}
}

func TestMeasureSamplerComparison(t *testing.T) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := MeasureSamplerComparison(ds, 3)
	if fast <= 0 || slow <= 0 {
		t.Fatalf("non-positive timings: %v %v", fast, slow)
	}
	// The Dashboard should beat the naive O(m*n) implementation.
	if fast > slow {
		t.Logf("note: dashboard %v slower than naive %v on this tiny graph", fast, slow)
	}
}

func TestExperimentNamesRunAll(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 7 {
		t.Fatalf("names = %v", names)
	}
	var buf bytes.Buffer
	o := quickOptions()
	o.Epochs = 1
	if err := RunExperiment("all", o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, h := range []string{"Table I", "Figure 2", "Figure 3", "Figure 4", "Table II", "Theorem 1", "Theorem 2"} {
		if !strings.Contains(out, h) {
			t.Errorf("'all' output missing %q", h)
		}
	}
}

func TestAbout(t *testing.T) {
	if !strings.Contains(About(), Version) {
		t.Error("About() missing version")
	}
}

func TestSamplerAblationQuick(t *testing.T) {
	o := quickOptions()
	o.Epochs = 2
	r, err := RunSamplerAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 samplers", len(r.Rows))
	}
	var frontier, randomNode *SamplerAblationRow
	for i := range r.Rows {
		if r.Rows[i].ValF1 < 0 || r.Rows[i].ValF1 > 1 {
			t.Errorf("%s F1 out of range: %v", r.Rows[i].Sampler, r.Rows[i].ValF1)
		}
		switch r.Rows[i].Sampler {
		case "frontier":
			frontier = &r.Rows[i]
		case "random-node":
			randomNode = &r.Rows[i]
		}
	}
	if frontier == nil || randomNode == nil {
		t.Fatal("expected frontier and random-node rows")
	}
	// Section III-C: frontier preserves connectivity better than
	// uniform vertex sampling.
	if frontier.LCCFrac <= randomNode.LCCFrac {
		t.Errorf("frontier LCC %.3f <= random-node %.3f", frontier.LCCFrac, randomNode.LCCFrac)
	}
}

func TestTrainUntil(t *testing.T) {
	ds := GenerateDataset(DatasetConfig{
		Name: "tu", Vertices: 500, TargetEdges: 5000,
		FeatureDim: 12, NumClasses: 4, Homophily: 0.85, Seed: 5,
	})
	model := NewModel(ds, Config{Layers: 2, Hidden: 12, FrontierM: 30, Budget: 150, Workers: 1, Seed: 3})
	tr := NewTrainer(ds, model)
	epochs, elapsed, f1 := tr.TrainUntil(0.5, 30)
	if f1 < 0.5 {
		t.Fatalf("TrainUntil stopped at F1 %.3f after %d epochs", f1, epochs)
	}
	if epochs >= 30 {
		t.Errorf("needed all %d epochs to reach 0.5", epochs)
	}
	if elapsed <= 0 {
		t.Error("non-positive training time")
	}
	// Unreachable target exhausts the budget.
	epochs, _, _ = tr.TrainUntil(2.0, 3)
	if epochs != 3 {
		t.Errorf("unreachable target ran %d epochs, want 3", epochs)
	}
}

func TestDatasetWriteReadFacade(t *testing.T) {
	ds, err := LoadPreset("ppi", 0.005, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.gsg"
	if err := WriteDataset(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.NumEdges() != ds.G.NumEdges() {
		t.Error("facade round trip lost edges")
	}
}
