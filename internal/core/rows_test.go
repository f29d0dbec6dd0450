package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"reflect"
	"testing"

	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// TestStepOnMatchesEveryRowPass: StepOn runs the last layer and the
// head on its subgraph's training rows alone (nn.Ctx.Rows), and the
// loss and every gradient it hands Adam have the bits of the every-row
// pass — Model.Forward, Loss.Eval over the same mask and Model.Backward
// with Rows nil — on a twin model stepped by its own Adam, over three
// steps on three subgraphs: sigmoid-BCE and softmax-CE, 16 and 40
// features (at 40 the first layer propagates its output, and at one
// layer it is also the row-restricted last one), one to three layers,
// with dropout and without, at Workers 1 and 3.
func TestStepOnMatchesEveryRowPass(t *testing.T) {
	for _, c := range lossFeatureCases {
		multi := c.multi
		ds := tinyDatasetOf(t, multi, c.features)
		train := make([]bool, ds.G.NumVertices())
		for _, v := range ds.TrainIdx {
			train[v] = true
		}
		for layers := 1; layers <= 3; layers++ {
			for _, drop := range []float64{0, 0.3} {
				for _, workers := range []int{1, 3} {
					cfg := tinyConfig()
					cfg.Layers, cfg.DropRate, cfg.Workers = layers, drop, workers
					tag := fmt.Sprintf("multi=%v features=%d layers=%d drop=%v workers=%d", multi, c.features, layers, drop, workers)
					tr := NewTrainer(ds, NewModel(ds, cfg))
					twin := NewModel(ds, cfg)
					opt := nn.NewAdam(cfg.LR)
					dropRng := rng.NewStream(cfg.Seed, 0xD409)
					fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
					for step := 0; step < 3; step++ {
						sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(11, step))
						idx, mask := make([]int, sub.N), []int{}
						for i, v := range sub.Orig {
							idx[i] = int(v)
							if train[v] {
								mask = append(mask, i)
							}
						}
						if len(mask) == sub.N {
							t.Fatalf("%s step %d: every row of the subgraph is a training row", tag, step)
						}
						h0, labels := mat.New(sub.N, ds.FeatureDim()), mat.New(sub.N, ds.NumClasses)
						mat.GatherRows(h0, ds.Features, idx)
						mat.GatherRows(labels, ds.Labels, idx)
						ctx := twin.CtxForGraph(sub.CSR, ds.FeatureDim(), nil)
						if drop > 0 {
							ctx.Train, ctx.DropRate, ctx.Rng = true, drop, dropRng
						}
						logits := twin.Forward(ctx, h0)
						dLogits := mat.New(sub.N, ds.NumClasses)
						want := twin.Loss.Eval(logits, labels, mask, dLogits)
						twin.Backward(ctx, dLogits)

						if got := tr.StepOn(sub); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s step %d: loss %v, every-row pass %v", tag, step, got, want)
						}
						for i, p := range tr.Model.Params() {
							q := twin.Params()[i]
							for j, g := range p.Grad.Data {
								if math.Float64bits(g) != math.Float64bits(q.Grad.Data[j]) {
									t.Fatalf("%s step %d: %s gradient element %d = %v, every-row pass %v", tag, step, p.Name, j, g, q.Grad.Data[j])
								}
							}
						}
						opt.Step(twin.Params())
					}
				}
			}
		}
	}
}

// TestForwardOnRowsIsInferOnThem: Evaluate's own pass gives each
// listed vertex the logits of Infer (the head over FullEmbeddings), bit
// for bit, and Model.Forward under ctx.Rows gives them to the listed
// rows and +0 everywhere else; Evaluate returns the F1 of Infer's
// predictions — over the splits, a list in no order with a repeated
// vertex (not a Ctx.Rows), and none. Both losses, 16 and 40 features
// (at 40 the first layer propagates its output), one and three layers.
func TestForwardOnRowsIsInferOnThem(t *testing.T) {
	for _, c := range lossFeatureCases {
		multi := c.multi
		ds := tinyDatasetOf(t, multi, c.features)
		for _, layers := range []int{1, 3} {
			cfg := tinyConfig()
			cfg.Layers = layers
			tr := NewTrainer(ds, NewModel(ds, cfg))
			for i := 0; i < 3; i++ {
				tr.Step()
			}
			m := tr.Model
			full := m.Infer(ds)
			pred := nn.PredictSingle(full)
			if multi {
				pred = nn.PredictMulti(full)
			}
			for name, idx := range map[string][]int32{
				"val": ds.ValIdx, "test": ds.TestIdx, "train": ds.TrainIdx,
				"unordered": {17, 3, 599, 3, 42}, "none": {},
			} {
				tag := fmt.Sprintf("multi=%v features=%d layers=%d %s", multi, c.features, layers, name)
				rows := make([]int, len(idx))
				for i, v := range idx {
					rows[i] = int(v)
				}
				if want := nn.F1Micro(pred, ds.Labels, rows); m.Evaluate(ds, idx) != want {
					t.Errorf("%s: Evaluate %v, F1 of Infer %v", tag, m.Evaluate(ds, idx), want)
				}
				own := m.infer(ds, rows)
				for i, v := range own.Data {
					if want := full.At(rows[i/own.Cols], i%own.Cols); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s: Evaluate's logit %d of vertex %d = %v, want %v", tag, i%own.Cols, rows[i/own.Cols], v, want)
					}
				}
				if name == "unordered" {
					continue // Ctx.Rows must be ascending
				}
				ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
				ctx.Rows = rows
				got := m.Forward(ctx, ds.Features)
				listed := make([]bool, got.Rows)
				for _, r := range rows {
					listed[r] = true
				}
				for i, v := range got.Data {
					want := 0.0
					if listed[i/got.Cols] {
						want = full.Data[i]
					}
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("%s: logit %d = %v, want %v", tag, i, v, want)
					}
				}
				if len(ctx.Rows) != len(rows) {
					t.Fatalf("%s: Forward did not leave ctx.Rows as it found it", tag)
				}
			}
		}
	}
}

// lossFeatureCases are the losses and feature widths the row-list
// tests run: sigmoid-BCE and softmax-CE, each on 16 features, where no
// layer of tinyConfig's stack propagates its output, and on 40, where
// the first one does.
var lossFeatureCases = []struct {
	multi    bool
	features int
}{{true, 16}, {false, 16}, {true, 40}, {false, 40}}

// reachableFloats walks everything reachable from m — weights,
// gradients, Adam moments, every layer's cached activations and
// buffers, each pointer once — and returns how many float64s the
// slices it meets can hold and a CRC-64 of the bits they hold.
func reachableFloats(m *Model) (capacity int, crc uint64) {
	seen := map[uintptr]bool{}
	var b [8]byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() != reflect.Float64 {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
				return
			}
			capacity += v.Cap()
			for i := 0; i < v.Len(); i++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Index(i).Float()))
				crc = crc64.Update(crc, weightsCRCTable, b[:])
			}
		}
	}
	walk(reflect.ValueOf(m))
	return capacity, crc
}

// TestEvaluateLeavesTheModelAsTrainingLeftIt: on a graph fifteen times
// the subgraph budget, Evaluate and Infer read the model's weights and
// nothing else — every float the model reaches (caches and buffers
// included) is the bits, and every buffer the capacity, the last
// training step left — and the next step's loss and weights are those
// of a twin that never evaluated.
func TestEvaluateLeavesTheModelAsTrainingLeftIt(t *testing.T) {
	ds := datasets.Generate(datasets.Config{
		Name: "large", Vertices: 3000, TargetEdges: 30000,
		FeatureDim: 16, NumClasses: 5, Homophily: 0.85, NoiseStd: 0.4, Seed: 3,
	})
	cfg := tinyConfig()
	cfg.DropRate = 0.2
	evaluated, twin := NewTrainer(ds, NewModel(ds, cfg)), NewTrainer(ds, NewModel(ds, cfg))
	fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
	for step := 0; step < 4; step++ {
		sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(9, step))
		if step == 3 {
			capBefore, crcBefore := reachableFloats(evaluated.Model)
			if f1 := evaluated.Evaluate(ds.ValIdx); f1 <= 0 {
				t.Fatalf("Evaluate = %v", f1)
			}
			evaluated.Model.Infer(ds)
			capAfter, crcAfter := reachableFloats(evaluated.Model)
			if capAfter != capBefore || crcAfter != crcBefore {
				t.Fatalf("inference changed the model: %d floats of capacity (CRC %#x), %d (CRC %#x) before",
					capAfter, crcAfter, capBefore, crcBefore)
			}
		}
		got, want := evaluated.StepOn(sub), twin.StepOn(sub)
		if math.Float64bits(got) != math.Float64bits(want) || want == 0 {
			t.Fatalf("step %d: loss %v, twin %v", step, got, want)
		}
	}
	if got, want := weightCRC(evaluated.Model), weightCRC(twin.Model); got != want {
		t.Errorf("weights after a step that followed Evaluate: CRC %#x, twin %#x", got, want)
	}
}
