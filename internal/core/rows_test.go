package core

import (
	"fmt"
	"math"
	"testing"

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
// steps on three subgraphs: sigmoid-BCE and softmax-CE, one to three
// layers, every aggregator, with dropout and without, at Workers 1
// and 3.
func TestStepOnMatchesEveryRowPass(t *testing.T) {
	for _, multi := range []bool{true, false} {
		ds := tinyDataset(t, multi)
		train := make([]bool, ds.G.NumVertices())
		for _, v := range ds.TrainIdx {
			train[v] = true
		}
		for layers := 1; layers <= 3; layers++ {
			for _, agg := range []string{"mean", "sym", "sum"} {
				for _, drop := range []float64{0, 0.3} {
					for _, workers := range []int{1, 3} {
						cfg := tinyConfig()
						cfg.Layers, cfg.Aggregator, cfg.DropRate, cfg.Workers = layers, agg, drop, workers
						tag := fmt.Sprintf("multi=%v layers=%d agg=%s drop=%v workers=%d", multi, layers, agg, drop, workers)
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
}

// TestForwardOnRowsIsInferOnThem: Model.Forward under ctx.Rows gives
// the listed rows Infer's logits, bit for bit, and +0 everywhere else;
// Evaluate, which scores that way, returns the F1 of Infer's
// predictions — over the splits, a list in no order with a repeated
// vertex, and none. Both losses, one and three layers.
func TestForwardOnRowsIsInferOnThem(t *testing.T) {
	for _, multi := range []bool{true, false} {
		ds := tinyDataset(t, multi)
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
				tag := fmt.Sprintf("multi=%v layers=%d %s", multi, layers, name)
				rows := make([]int, len(idx))
				for i, v := range idx {
					rows[i] = int(v)
				}
				if want := nn.F1Micro(pred, ds.Labels, rows); m.Evaluate(ds, idx) != want {
					t.Errorf("%s: Evaluate %v, F1 of Infer %v", tag, m.Evaluate(ds, idx), want)
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
