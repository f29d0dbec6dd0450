package core

import (
	"math"
	"time"

	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// Trainer drives minibatch training with the subgraph pool scheduler
// (Algorithm 5): pre-sampled subgraphs are consumed one per weight
// update; when the pool drains, PInter sampler instances refill it in
// parallel.
type Trainer struct {
	DS    *datasets.Dataset
	Model *Model
	Pool  *sampler.Pool
	Opt   *nn.Adam
	// Timer accumulates the "sampling", "featprop" and "weight"
	// segments of Fig. 3D's execution-time breakdown; the rest of a
	// step is the breakdown's fourth share, "other".
	Timer *perf.Timer

	trainMask []bool
	steps     int
	dropRng   *rng.RNG

	// Per-step gather scratch, reused across Step calls (fully
	// overwritten each step) to cut allocation churn on the hot path.
	bufH0, bufLabels, bufDLogits *mat.Dense
	bufIdx                       []int
	bufMask                      []int
}

// NewTrainer wires a trainer with a Dashboard frontier sampler pool.
func NewTrainer(ds *datasets.Dataset, m *Model) *Trainer {
	cfg := m.cfg
	fr := &sampler.Frontier{
		G: ds.G, M: cfg.FrontierM, N: cfg.Budget,
		Eta: cfg.Eta, DegCap: cfg.DegCap,
	}
	return NewTrainerWithSampler(ds, m, fr)
}

// NewTrainerWithSampler wires a trainer around any vertex sampler —
// the hook for the paper's future-work study of alternative sampling
// algorithms.
func NewTrainerWithSampler(ds *datasets.Dataset, m *Model, s sampler.VertexSampler) *Trainer {
	cfg := m.cfg
	mask := make([]bool, ds.G.NumVertices())
	for _, v := range ds.TrainIdx {
		mask[v] = true
	}
	pool := sampler.NewPool(ds.G, s, cfg.PInter, cfg.Seed)
	pool.Workers = cfg.Workers
	pool.Prefetch = cfg.Prefetch
	return &Trainer{
		DS:        ds,
		Model:     m,
		Pool:      pool,
		Opt:       nn.NewAdam(cfg.LR),
		Timer:     perf.NewTimer(),
		trainMask: mask,
		dropRng:   rng.NewStream(cfg.Seed, 0xD409),
	}
}

// Steps returns the number of weight updates performed.
func (t *Trainer) Steps() int { return t.steps }

// Step performs one training iteration (Algorithm 1 lines 2-13) on
// the next subgraph of the pool; see StepOn.
func (t *Trainer) Step() float64 { return t.StepOn(t.nextSubgraph()) }

// StepOn performs one training iteration on sub: gather its features
// and labels, run forward and backward propagation, and apply an Adam
// update. It returns the minibatch loss. A subgraph whose vertex set
// contains no training vertices is skipped with zero loss (possible on
// tiny datasets). StepOn never touches the Pool, so a caller stepping
// subgraphs of its own starts no background sampling.
func (t *Trainer) StepOn(sub *graph.Subgraph) float64 {
	n := sub.N
	feat := t.DS.FeatureDim()
	t.bufH0 = mat.Reuse(t.bufH0, n, feat)
	t.bufLabels = mat.Reuse(t.bufLabels, n, t.DS.NumClasses)
	h0 := t.bufH0
	labels := t.bufLabels
	workers := t.Model.cfg.Workers
	if cap(t.bufIdx) < n {
		t.bufIdx = make([]int, n)
	}
	idx := t.bufIdx[:n]
	mask := t.bufMask[:0]
	for i, v := range sub.Orig {
		idx[i] = int(v)
		if t.trainMask[v] {
			mask = append(mask, i)
		}
	}
	t.bufMask = mask[:0]
	if len(mask) == 0 {
		return 0
	}
	mat.GatherRowsP(h0, t.DS.Features, idx, workers)
	mat.GatherRowsP(labels, t.DS.Labels, idx, workers)

	ctx := t.Model.ctxFor(sub.CSR, feat, t.Timer)
	cfg := t.Model.cfg
	if cfg.DropRate > 0 {
		ctx.Train = true
		ctx.DropRate = cfg.DropRate
		ctx.Rng = t.dropRng
	}
	logits := t.Model.Forward(ctx, h0)
	t.bufDLogits = mat.Reuse(t.bufDLogits, n, t.DS.NumClasses)
	dLogits := t.bufDLogits
	loss := t.Model.Loss.Eval(logits, labels, mask, dLogits)
	t.Model.ZeroGrad()
	t.Model.Backward(ctx, dLogits)
	params := t.Model.Params()
	if cfg.WeightDecay > 0 {
		for _, p := range params {
			mat.AddScaled(p.Grad, p.W, cfg.WeightDecay)
		}
	}
	if cfg.GradClip > 0 {
		clipGradients(params, cfg.GradClip)
	}
	t.Opt.Step(params)
	t.steps++
	return loss
}

// clipGradients rescales all gradients when their global L2 norm
// exceeds max.
func clipGradients(params []*nn.Param, max float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
}

func (t *Trainer) nextSubgraph() *graph.Subgraph {
	start := time.Now()
	s := t.Pool.Next()
	t.Timer.Add("sampling", time.Since(start))
	return s
}

// Epoch runs ceil(|V| / Budget) steps — one full traversal of the
// training vertex budget as defined in Section III-B — and returns
// the mean minibatch loss.
func (t *Trainer) Epoch() float64 {
	b := t.Model.cfg.Budget
	if b <= 0 {
		b = 1
	}
	iters := (t.DS.G.NumVertices() + b - 1) / b
	if iters < 1 {
		iters = 1
	}
	total := 0.0
	for i := 0; i < iters; i++ {
		total += t.Step()
	}
	if d := t.Model.cfg.LRDecay; d > 0 && d != 1 {
		t.Opt.LR *= d
	}
	return total / float64(iters)
}

// TrainUntil runs epochs until validation micro-F1 reaches target or
// maxEpochs elapse, returning the epochs used, the wall time spent in
// training (excluding evaluation), and the final F1. This is the
// measurement behind the paper's "training time to reach an accuracy
// threshold" speedups (Section VI-B).
func (t *Trainer) TrainUntil(target float64, maxEpochs int) (epochs int, trainTime time.Duration, f1 float64) {
	for epochs < maxEpochs {
		start := time.Now()
		t.Epoch()
		trainTime += time.Since(start)
		epochs++
		f1 = t.Evaluate(t.DS.ValIdx)
		if f1 >= target {
			return epochs, trainTime, f1
		}
	}
	return epochs, trainTime, f1
}

// Evaluate runs full-graph inference and returns micro-F1 over the
// given vertex subset (e.g. the validation split).
func (t *Trainer) Evaluate(idx []int32) float64 {
	logits := t.Infer()
	var pred *mat.Dense
	if t.DS.MultiLabel {
		pred = nn.PredictMulti(logits)
	} else {
		pred = nn.PredictSingle(logits)
	}
	rows := make([]int, len(idx))
	for i, v := range idx {
		rows[i] = int(v)
	}
	return nn.F1Micro(pred, t.DS.Labels, rows)
}

// Infer runs the model over the entire training graph and returns
// logits for every vertex.
func (t *Trainer) Infer() *mat.Dense {
	ctx := t.Model.ctxFor(t.DS.G, t.DS.FeatureDim(), nil)
	return t.Model.Forward(ctx, t.DS.Features)
}
