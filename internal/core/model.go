// Package core implements the paper's primary contribution: the
// graph-sampling-based GCN training algorithm (Algorithms 1 and 5).
// Every minibatch is an induced subgraph drawn by a graph sampler
// (frontier sampling by default); a complete L-layer GCN is built on
// that subgraph, so no layer ever holds more nodes than the subgraph
// itself — eliminating the layer-sampling "neighbor explosion" and
// making per-epoch work O(L · |V| · f · (f + d_GS)) (Section III-B).
package core

import (
	"fmt"
	"math"

	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// Config parameterizes model construction and training.
type Config struct {
	// Layers is the GCN depth L.
	Layers int
	// Hidden is the per-layer output dimension f^(l); the effective
	// layer width is 2*Hidden after neighbor-self concatenation.
	Hidden int
	// LR is the Adam learning rate.
	LR float64

	// FrontierM is the frontier size m (paper default 1000).
	FrontierM int
	// Budget is the subgraph vertex budget n.
	Budget int
	// Eta is the Dashboard enlargement factor.
	Eta float64
	// DegCap caps Dashboard entries per vertex (0 = uncapped; the
	// paper uses 30 on the skewed Amazon graph).
	DegCap int
	// PInter is the number of sampler instances per pool refill.
	PInter int

	// Workers is the real goroutine budget for all parallel kernels
	// (0 = GOMAXPROCS).
	Workers int
	// Q is the feature-partition count for propagation; 0 derives it
	// per graph from partition.Chunks, Theorem 2 priced against the
	// machine. It never changes a result.
	Q int

	// DropRate applies inverted dropout to each layer input during
	// training (0 disables).
	DropRate float64
	// WeightDecay adds L2 regularization: grad += WeightDecay * W.
	WeightDecay float64
	// GradClip rescales gradients when their global L2 norm exceeds
	// this value (0 disables).
	GradClip float64

	Seed uint64
}

// withDefaults fills unset fields.
func (c Config) withDefaults(ds *datasets.Dataset) Config {
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 128
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	n := ds.G.NumVertices()
	if c.FrontierM == 0 {
		// The paper's m = 1000 assumes Table-I-sized graphs; scale it
		// down on small graphs so an epoch still contains several
		// weight updates.
		c.FrontierM = min(max(n/20, 25), 1000)
	}
	if c.FrontierM > n/2 && n > 1 {
		c.FrontierM = n/2 + 1
	}
	if c.Budget == 0 {
		c.Budget = 8 * c.FrontierM
		if c.Budget > n/2 && n > 1 {
			c.Budget = n/2 + 1
		}
	}
	if c.Eta == 0 {
		c.Eta = 2
	}
	if c.PInter == 0 {
		c.PInter = perf.NumWorkers()
	}
	if c.Workers == 0 {
		c.Workers = perf.NumWorkers()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Model is an L-layer graph-sampling GCN with a dense classifier head.
type Model struct {
	Layers []*nn.GCNLayer
	Head   *nn.Dense
	Loss   nn.Loss
	// ModelVersion tags the trained-weights generation (e.g. the
	// optimizer step count at save time). It rides along in
	// checkpoints so a serving process can report and cache-key the
	// weights it answers from.
	ModelVersion uint64
	cfg          Config
}

// NewModel constructs a model shaped for the dataset under cfg.
func NewModel(ds *datasets.Dataset, cfg Config) *Model {
	cfg = cfg.withDefaults(ds)
	m := newModelArch(ds.FeatureDim(), ds.NumClasses, ds.MultiLabel, cfg)
	if ds.MultiLabel {
		// Initialize the output bias at the per-class base-rate logit
		// so sigmoid-BCE starts from the marginal solution instead of
		// spending early updates learning label sparsity (121 classes
		// with ~2 positives per vertex on PPI).
		initBiasToBaseRate(m.Head, ds)
	}
	return m
}

// newModelArch constructs a model from architecture dimensions alone
// — the dataset-free path used when reconstructing a model from a
// checkpoint's metadata. cfg.Layers and cfg.Hidden must be resolved.
func newModelArch(in, classes int, multiLabel bool, cfg Config) *Model {
	r := rng.NewStream(cfg.Seed, 0xC0DE)
	m := &Model{cfg: cfg}
	for l := 0; l < cfg.Layers; l++ {
		layer := nn.NewGCNLayer(in, cfg.Hidden, r)
		m.Layers = append(m.Layers, layer)
		in = layer.OutWidth()
	}
	m.Head = nn.NewDense(in, classes, r)
	if multiLabel {
		m.Loss = nn.SigmoidBCE{}
	} else {
		m.Loss = nn.SoftmaxCE{}
	}
	return m
}

// initBiasToBaseRate sets head bias c to log(p_c/(1-p_c)) where p_c
// is the empirical positive rate of class c on the training split.
func initBiasToBaseRate(head *nn.Dense, ds *datasets.Dataset) {
	k := ds.NumClasses
	counts := make([]float64, k)
	for _, v := range ds.TrainIdx {
		row := ds.Labels.Row(int(v))
		for c, x := range row {
			counts[c] += x
		}
	}
	n := float64(len(ds.TrainIdx))
	if n == 0 {
		return
	}
	for c := 0; c < k; c++ {
		p := (counts[c] + 0.5) / (n + 1) // smoothed
		head.B.W.Data[c] = math.Log(p / (1 - p))
	}
}

// Config returns the resolved configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	ps = append(ps, m.Head.Params()...)
	return ps
}

// NumParams returns the total trainable scalar count.
func (m *Model) NumParams() int {
	total := 0
	for _, p := range m.Params() {
		total += len(p.W.Data)
	}
	return total
}

// CtxForGraph builds the execution context for a given (sub)graph,
// deriving Q from partition.Chunks when unset: the one context of
// every trainer, the full-batch baseline's included.
func (m *Model) CtxForGraph(g *graph.CSR, feat int, timer *perf.Timer) *nn.Ctx {
	q := m.cfg.Q
	if q == 0 {
		q = partition.Chunks(g.N, g.AvgDegree(), feat)
	}
	return &nn.Ctx{G: g, Q: q, Workers: m.cfg.Workers, Timer: timer}
}

// Infer returns the logits of every vertex of ds's graph, in a matrix
// the caller owns: the head over FullEmbeddings' table.
func (m *Model) Infer(ds *datasets.Dataset) *mat.Dense { return m.infer(ds, nil) }

// Evaluate returns the micro-F1 over the vertices idx of full-graph
// inference on ds: the one evaluation behind every trainer, the
// baselines' included. The layers below the last stream over the graph
// as in FullEmbeddings; the last layer and the head run on the scored
// vertices alone. A row's logits are its own arithmetic, so they are
// Infer's bits.
func (m *Model) Evaluate(ds *datasets.Dataset, idx []int32) float64 {
	rows := make([]int, len(idx))
	for i, v := range idx {
		rows[i] = int(v)
	}
	labels := mat.New(len(rows), ds.NumClasses)
	mat.GatherRows(labels, ds.Labels, rows)
	predict := nn.PredictSingle
	if ds.MultiLabel {
		predict = nn.PredictMulti
	}
	return nn.F1Micro(predict(m.infer(ds, rows)), labels, nil)
}

// infer returns the logits of the vertices rows lists (in any order;
// nil: every vertex), row t for vertex rows[t], reading only the
// model's weights: the layers below the last stream over every vertex
// as in FullEmbeddings, and the last one and the head over the listed
// ones.
func (m *Model) infer(ds *datasets.Dataset, rows []int) *mat.Dense {
	last, workers := len(m.Layers)-1, m.cfg.Workers
	h := forwardBlocks(m.Layers[:last], ds.G, ds.Features, workers, 0)
	h = layerForwardBlocks(m.Layers[last], ds.G, h, rows, workers, 256)
	logits := mat.New(h.Rows, m.Head.OutDim)
	m.Head.Apply(logits, h, nil, workers)
	return logits
}

// Forward runs the full model on graph g with input features h and
// returns the logits, which are the head's until its next call. The
// rows ctx lists go to the last layer and the head alone: every layer
// below feeds the last one's propagation, which reads all its rows.
// ctx.InRows, where h is a table the graph's vertices index (a
// subgraph's into the dataset's features), goes to the first layer
// alone: every layer above reads its own predecessor's output.
func (m *Model) Forward(ctx *nn.Ctx, h *mat.Dense) *mat.Dense {
	rows, in := ctx.Rows, ctx.InRows
	ctx.Rows = nil
	x := h
	for i, l := range m.Layers {
		if i == len(m.Layers)-1 {
			ctx.Rows = rows
		}
		x = l.Forward(ctx, x)
		ctx.InRows = nil
	}
	ctx.Rows, ctx.InRows = rows, in
	return m.Head.Forward(ctx, x)
}

// FullEmbeddings runs the GCN stack (without the classifier head) over
// the entire graph and returns the |V| x OutWidth final-layer
// embedding table — the one full-graph pass, behind serving's cold
// start, the artifact build, Infer and Evaluate alike. Training
// samples subgraphs because backpropagation over the full graph is
// intractable; inference has no such constraint, and the exact
// embeddings the paper evaluates (Section VI) come from this pass. It
// streams one layer at a time in vertex blocks of `block` rows
// (<= 0 means 256) over `workers` goroutines (<= 0 means the pool's
// default): only the current and next layer activations are held in
// full, plus per-worker block scratch, so memory stays O(|V|·f).
//
// Every output row is produced by serial per-row arithmetic in the
// order Forward uses (each layer's association order, (A·H)·W_neigh or
// A·(H·W_neigh) by nn.GCNLayer.PropagatesOutput; neighbor aggregation
// in adjacency order through the same partition kernel; GEMM
// accumulation in k order) and belongs to exactly one block, so the
// table is bit-identical at every workers and block setting and to
// Forward's own activations over g.
func (m *Model) FullEmbeddings(g *graph.CSR, feats *mat.Dense, workers, block int) *mat.Dense {
	return forwardBlocks(m.Layers, g, feats, workers, block)
}

// forwardBlocks is FullEmbeddings over the given layers: feats itself
// for none.
func forwardBlocks(layers []*nn.GCNLayer, g *graph.CSR, feats *mat.Dense, workers, block int) *mat.Dense {
	if feats.Rows != g.N {
		panic("core: feature rows do not match graph vertices")
	}
	if workers < 1 {
		workers = perf.NumWorkers()
	}
	if block < 1 {
		block = 256
	}
	cur := feats
	for _, l := range layers {
		cur = layerForwardBlocks(l, g, cur, nil, workers, block)
	}
	return cur
}

// layerForwardBlocks returns GCNLayer(cur) for the vertices rows lists
// (nil: every vertex), row t for vertex rows[t], computed in blocks of
// rows that each worker owns whole. All arithmetic inside a block is
// serial and per-row, so neither the blocks nor the list change a
// result. A layer that propagates its output (see
// nn.GCNLayer.PropagatesOutput) first forms cur·W_neigh over every
// vertex, as its Forward does, and its blocks propagate that.
func layerForwardBlocks(l *nn.GCNLayer, g *graph.CSR, cur *mat.Dense, rows []int, workers, block int) *mat.Dense {
	n := g.N
	if rows != nil {
		n = len(rows)
	}
	next := mat.New(n, l.OutWidth())
	in, out := l.InDim, l.OutDim
	// src is what the blocks propagate: cur, or cur·W_neigh for a
	// layer that propagates its output.
	reorder := l.PropagatesOutput()
	src := cur
	if reorder {
		src = mat.New(g.N, out)
		mat.Mul(src, cur, l.WNeigh.W, workers)
	}
	nBlocks := (next.Rows + block - 1) / block
	perf.Parallel(nBlocks, workers, func(_, blo, bhi int) {
		// Per-worker scratch, reused across this worker's blocks. hS
		// holds a row list's own rows (an every-vertex block reads cur
		// in place) and hN the propagated rows W_neigh multiplies after;
		// a reordered layer propagates straight into zN.
		var hS, hN []float64
		if rows != nil {
			hS = make([]float64, block*in)
		}
		if !reorder {
			hN = make([]float64, block*in)
		}
		zS, zN := make([]float64, block*out), make([]float64, block*out)
		pv := &mat.Dense{Rows: 1, Cols: src.Cols} // a listed vertex's propagated row
		for b := blo; b < bhi; b++ {
			lo, hi := b*block, min(b*block+block, next.Rows)
			k := hi - lo
			zSb, zNb := mat.FromData(k, out, zS[:k*out]), mat.FromData(k, out, zN[:k*out])
			pb := zNb
			if !reorder {
				pb = mat.FromData(k, in, hN[:k*in])
			}
			var hSb *mat.Dense
			if rows == nil {
				hSb = mat.FromData(k, in, cur.Data[lo*in:hi*in])
				partition.PropagateRows(pb, src, g, partition.NormDst, lo, hi)
			} else {
				hSb = mat.FromData(k, in, hS[:k*in])
				for t, v := range rows[lo:hi] {
					copy(hSb.Row(t), cur.Row(v))
					pv.Data = pb.Row(t)
					partition.PropagateRows(pv, src, g, partition.NormDst, v, v+1)
				}
			}
			mat.Mul(zSb, hSb, l.WSelf.W, 1)
			if !reorder {
				mat.Mul(zNb, pb, l.WNeigh.W, 1)
			}
			l.Combine(mat.FromData(k, 2*out, next.Data[lo*2*out:hi*2*out]), zSb, zNb, 1)
		}
	})
	return next
}

// Backward propagates dLogits through head and layers, setting every
// parameter gradient. The first layer's input is the feature matrix,
// so nothing reads a gradient w.r.t. it and none is computed. As in
// Forward, the rows ctx lists go to the head and the last layer alone;
// dLogits must be +0 in the others, as a masked loss leaves it.
func (m *Model) Backward(ctx *nn.Ctx, dLogits *mat.Dense) {
	rows := ctx.Rows
	d := m.Head.Backward(ctx, dLogits)
	for i := len(m.Layers) - 1; i > 0; i-- {
		d = m.Layers[i].Backward(ctx, d)
		ctx.Rows = nil
	}
	if len(m.Layers) > 0 {
		m.Layers[0].BackwardParams(ctx, d)
	}
	ctx.Rows = rows
}

// String summarizes the architecture.
func (m *Model) String() string {
	return fmt.Sprintf("GCN(L=%d, hidden=%d, params=%d, loss=%s)",
		len(m.Layers), m.cfg.Hidden, m.NumParams(), m.Loss.Name())
}
