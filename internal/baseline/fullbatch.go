package baseline

import (
	"slices"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
)

// FullBatch is the Kipf-Welling-style "Batched GCN" baseline of
// Fig. 2: every weight update runs forward and backward propagation
// over the *entire* training graph. Convergence per update is good
// but each update costs a full-graph pass, so wall-clock convergence
// is slow on large graphs — exactly the trade-off the paper plots.
//
// It reuses the core model (same layers, loss and optimizer); only
// the batching policy differs.
type FullBatch struct {
	DS    *datasets.Dataset
	Model *core.Model
	opt   *nn.Adam

	// trainRows is the loss mask, in TrainIdx's order; sortedRows the
	// same rows ascending, the rows the last layer and the head compute.
	trainRows, sortedRows []int
	steps                 int
}

// NewFullBatch builds the full-batch trainer; cfg's sampler fields
// are ignored.
func NewFullBatch(ds *datasets.Dataset, cfg core.Config) *FullBatch {
	m := core.NewModel(ds, cfg)
	rows := make([]int, len(ds.TrainIdx))
	for i, v := range ds.TrainIdx {
		rows[i] = int(v)
	}
	opt := nn.NewAdam(m.Config().LR)
	opt.Workers = m.Config().Workers
	sorted := slices.Clone(rows)
	slices.Sort(sorted)
	return &FullBatch{DS: ds, Model: m, opt: opt, trainRows: rows, sortedRows: slices.Compact(sorted)}
}

// Steps returns the number of updates performed.
func (f *FullBatch) Steps() int { return f.steps }

// Step performs one full-graph weight update and returns the loss.
func (f *FullBatch) Step() float64 {
	ctx := f.Model.CtxForGraph(f.DS.G, f.DS.FeatureDim(), nil)
	ctx.Rows = f.sortedRows
	logits := f.Model.Forward(ctx, f.DS.Features)
	dLogits := mat.New(logits.Rows, logits.Cols)
	loss := f.Model.Loss.Eval(logits, f.DS.Labels, f.trainRows, dLogits)
	f.Model.Backward(ctx, dLogits)
	f.opt.Step(f.Model.Params())
	f.steps++
	return loss
}

// Evaluate returns micro-F1 over idx using full-graph inference.
func (f *FullBatch) Evaluate(idx []int32) float64 { return f.Model.Evaluate(f.DS, idx) }
