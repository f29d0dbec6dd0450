// Package baseline implements the comparators of the paper's
// evaluation as batching policies over the one core.Model:
//
//   - GraphSAGE-style edge layer sampling [Hamilton et al., NIPS'17]:
//     every node of layer l draws DLS neighbors from layer l-1, so the
//     node population multiplies by (DLS+1) per layer — the "neighbor
//     explosion" whose cost Section III-B derives as
//     O(d_LS^L · |V| · f · (f + d_LS)) for small batches.
//   - Full-batch GCN [Kipf & Welling, ICLR'17]: one weight update per
//     pass over the entire graph ("Batched GCN" in Fig. 2).
//
// Both train a core.Model — the same layers, head, loss, optimizer and
// full-graph evaluation as the graph-sampling trainer — so Fig. 2 and
// Table II compare the batching policy, not the implementation.
package baseline

import (
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// SAGEConfig parameterizes the layer-sampling trainer.
type SAGEConfig struct {
	Layers int // GCN depth L
	Hidden int // per-layer output dim (width doubles via concat)
	DLS    int // neighbors sampled per node per layer (paper: d_LS)
	Batch  int // minibatch size of target vertices
	LR     float64
	Seed   uint64
	// Workers bounds goroutines inside dense kernels and gathers.
	Workers int
}

func (c SAGEConfig) withDefaults() SAGEConfig {
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 128
	}
	if c.DLS == 0 {
		c.DLS = 25
	}
	if c.Batch == 0 {
		c.Batch = 512
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// gatherGrain is the fewest rows of a sampled layer worth a worker of
// their own in the gathers; each output row is one chunk's, so the
// split never reaches a bit.
const gatherGrain = 16

// SAGE is the GraphSAGE-style layer-sampling trainer. It trains a
// core.Model whose layers it walks over a sampled tree instead of a
// graph: a node's W_self applies to its own row one layer down, its
// W_neigh to the mean of its DLS sampled neighbors' rows there.
type SAGE struct {
	DS    *datasets.Dataset
	Cfg   SAGEConfig
	Model *core.Model
	// Timer accumulates each step's "sample", "gather" and "gemm"
	// segments; under perf.Record they also tag the parallel regions
	// inside them, which is how Table II records this step beside the
	// graph-sampling one. The head, loss and optimizer are in none.
	Timer *perf.Timer

	opt   *nn.Adam
	r     *rng.RNG
	steps int

	// LastBatchNodes reports the total node count across all layers
	// of the most recent minibatch — the direct measurement of
	// neighbor explosion.
	LastBatchNodes int
}

// NewSAGE builds the baseline trainer for the dataset. The batch is
// capped at the training split.
func NewSAGE(ds *datasets.Dataset, cfg SAGEConfig) *SAGE {
	cfg = cfg.withDefaults()
	cfg.Batch = max(1, min(cfg.Batch, len(ds.TrainIdx)))
	opt := nn.NewAdam(cfg.LR)
	opt.Workers = cfg.Workers
	return &SAGE{
		DS: ds, Cfg: cfg,
		Model: core.NewModel(ds, core.Config{
			Layers: cfg.Layers, Hidden: cfg.Hidden, LR: cfg.LR,
			Seed: cfg.Seed, Workers: cfg.Workers,
		}),
		Timer: perf.NewTimer(),
		opt:   opt,
		r:     rng.NewStream(cfg.Seed, 0x5A6E),
	}
}

// Steps returns the number of updates performed.
func (s *SAGE) Steps() int { return s.steps }

// EpochSteps is ceil(|train| / batch), the steps of one pass over the
// training split.
func (s *SAGE) EpochSteps() int {
	return (len(s.DS.TrainIdx) + s.Cfg.Batch - 1) / s.Cfg.Batch
}

// sampleBatch draws Batch training targets and expands the layer
// tree: nodes[L] are the targets; going down, nodes[l-1] holds, for
// each node of nodes[l], first the node itself then DLS sampled
// neighbors — length |nodes[l]| * (1 + DLS). No deduplication is
// performed, faithfully reproducing the redundant computation of
// small-batch layer sampling.
func (s *SAGE) sampleBatch() [][]int32 {
	cfg, train, g := s.Cfg, s.DS.TrainIdx, s.DS.G
	nodes := make([][]int32, cfg.Layers+1)
	targets := make([]int32, cfg.Batch)
	for i := range targets {
		targets[i] = train[s.r.Intn(len(train))]
	}
	nodes[cfg.Layers] = targets
	for l := cfg.Layers; l >= 1; l-- {
		lower := make([]int32, 0, len(nodes[l])*(1+cfg.DLS))
		for _, v := range nodes[l] {
			lower = append(lower, v) // self
			deg := g.Degree(v)
			for k := 0; k < cfg.DLS; k++ {
				if deg == 0 {
					lower = append(lower, v) // degenerate: self-fill
					continue
				}
				lower = append(lower, g.Neighbor(v, s.r.Intn(deg)))
			}
		}
		nodes[l-1] = lower
	}
	return nodes
}

// eachRow runs fn on rows [0, n) in chunks of at least gatherGrain
// rows over the configured workers.
func (s *SAGE) eachRow(n int, fn func(i int)) {
	perf.ParallelMin(n, gatherGrain, s.Cfg.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// gatherRows returns the rows of m listed in vs.
func (s *SAGE) gatherRows(m *mat.Dense, vs []int32) *mat.Dense {
	idx := make([]int, len(vs))
	for i, v := range vs {
		idx[i] = int(v)
	}
	out := mat.New(len(vs), m.Cols)
	mat.GatherRowsP(out, m, idx, s.Cfg.Workers)
	return out
}

// Step performs one layer-sampled minibatch update and returns the
// loss.
func (s *SAGE) Step() float64 {
	cfg, m := s.Cfg, s.Model
	var nodes [][]int32
	s.Timer.Time("sample", func() { nodes = s.sampleBatch() })
	s.LastBatchNodes = 0
	for _, ns := range nodes {
		s.LastBatchNodes += len(ns)
	}
	stride, inv := 1+cfg.DLS, 1/float64(cfg.DLS)

	// Forward. acts[l] holds the rows of nodes[l]; self[l] and mean[l]
	// are each node's own row one layer down and the mean of its
	// sampled neighbors' rows there.
	L := cfg.Layers
	acts := make([]*mat.Dense, L+1)
	self := make([]*mat.Dense, L+1)
	mean := make([]*mat.Dense, L+1)
	s.Timer.Time("gather", func() { acts[0] = s.gatherRows(s.DS.Features, nodes[0]) })
	for l := 1; l <= L; l++ {
		layer, below := m.Layers[l-1], acts[l-1]
		n := len(nodes[l])
		self[l], mean[l] = mat.New(n, below.Cols), mat.New(n, below.Cols)
		s.Timer.Time("gather", func() {
			s.eachRow(n, func(i int) {
				copy(self[l].Row(i), below.Row(i*stride))
				for k := 1; k <= cfg.DLS; k++ {
					mat.Axpy(mean[l].Row(i), below.Row(i*stride+k), inv)
				}
			})
		})
		zs, zn := mat.New(n, cfg.Hidden), mat.New(n, cfg.Hidden)
		s.Timer.Time("gemm", func() {
			mat.Mul(zs, self[l], layer.WSelf.W, cfg.Workers)
			mat.Mul(zn, mean[l], layer.WNeigh.W, cfg.Workers)
		})
		acts[l] = mat.New(n, 2*cfg.Hidden)
		layer.Combine(acts[l], zs, zn, cfg.Workers)
	}

	// Head and loss over the batch targets, all training vertices.
	ctx := &nn.Ctx{Workers: cfg.Workers}
	logits := m.Head.Forward(ctx, acts[L])
	dLogits := mat.New(logits.Rows, logits.Cols)
	loss := m.Loss.Eval(logits, s.gatherRows(s.DS.Labels, nodes[L]), nil, dLogits)
	d := m.Head.Backward(ctx, dLogits)

	// Backward through the tree. The first layer's input is data, so
	// no gradient w.r.t. it is computed (as in Model.Backward).
	for l := L; l >= 1; l-- {
		layer := m.Layers[l-1]
		n, f := len(nodes[l]), acts[l-1].Cols
		dZs, dZn := mat.New(n, cfg.Hidden), mat.New(n, cfg.Hidden)
		layer.CombineGrad(dZs, dZn, acts[l], d, cfg.Workers)
		dSelf, dMean := mat.New(n, f), mat.New(n, f)
		s.Timer.Time("gemm", func() {
			mat.MulAT(layer.WSelf.Grad, self[l], dZs, cfg.Workers)
			mat.MulAT(layer.WNeigh.Grad, mean[l], dZn, cfg.Workers)
			if l > 1 {
				mat.MulBT(dSelf, dZs, layer.WSelf.W, cfg.Workers)
				mat.MulBT(dMean, dZn, layer.WNeigh.W, cfg.Workers)
			}
		})
		if l == 1 {
			break
		}
		d = mat.New(len(nodes[l-1]), f)
		s.Timer.Time("gather", func() {
			s.eachRow(n, func(i int) {
				copy(d.Row(i*stride), dSelf.Row(i))
				for k := 1; k <= cfg.DLS; k++ {
					mat.Axpy(d.Row(i*stride+k), dMean.Row(i), inv)
				}
			})
		})
	}

	s.opt.Step(m.Params())
	s.steps++
	return loss
}

// Evaluate returns the model's full-graph micro-F1 over idx: exact
// mean aggregation over every neighbor, not a sample, which is how
// GraphSAGE is evaluated in practice.
func (s *SAGE) Evaluate(idx []int32) float64 { return s.Model.Evaluate(s.DS, idx) }
