// Package nn implements the neural-network kernels of GCN training:
// the GCN layer (mean feature aggregation + self/neighbor weight
// application + concatenation + ReLU, exactly Algorithm 1 lines 6-9),
// a dense classification head, sigmoid-BCE and softmax-CE losses,
// the Adam optimizer, and F1 metrics.
//
// All backward passes are hand-derived and verified against numerical
// gradients in the tests. The feature-aggregation step is routed
// through the partition package so that training exercises the
// paper's cache-aware feature-dimension partitioning (Section V). A
// layer propagates the narrower side of its neighbor product: its
// input H, or H·W_neigh when that is less than half as wide
// (GCNLayer.PropagatesOutput), a choice made from the shape alone.
//
// Layers own what they return: the matrix a layer's Forward or
// Backward returns is that layer's buffer, overwritten by its next
// call, so a step allocates no activation or gradient; a caller that
// keeps one longer copies it. A backward pass sets its parameters'
// gradients (Param.Grad) rather than adding to them.
//
// A layer computes only the rows its caller reads when Ctx.Rows lists
// them — the training rows of a sampled subgraph, whose loss reads no
// other (inference runs no layer's Forward: core's Evaluate and Infer
// stream the graph and call Dense.Apply) — and the result is the
// every-row pass's, to the bit: a listed row's arithmetic is its own;
// an unlisted row's output gradient is +0 (the masked loss leaves it
// so), so its input gradient is +0 and its terms in a weight gradient
// are ±0, which add nothing to a sum started from +0. That holds on
// finite values: a NaN or an Inf in an unlisted row would have reached
// the every-row gradients (NaN·0 is NaN) and does not reach these. The
// determinism contract's row restriction (docs/ARCHITECTURE.md) states
// the argument whole.
//
// A stack's first layer can be handed the whole feature table with
// Ctx.InRows naming a subgraph's rows of it. Where it takes both its
// products on every row — it propagates its output and is not the
// last layer — and applies no dropout, it reads those rows in place
// through mat's pair forms, forward and backward; everywhere else (under
// dropout, when it propagates its input, when it is the last layer and
// has a row list) it gathers them into a buffer of its own first. Both
// give the bits of a caller's gathered matrix.
package nn

import (
	"math"
	"slices"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// Ctx carries the execution environment of one forward/backward pass:
// the (sub)graph to propagate over, the feature-partition count Q,
// the real worker goroutine budget, and an optional timer that
// receives the "featprop" and "weight" segments used by the Fig. 3
// breakdown (under perf.Record, the segments also tag the parallel
// regions inside them; everything else in a step is "other").
type Ctx struct {
	G       *graph.CSR
	Q       int
	Workers int
	Timer   *perf.Timer
	// Train enables stochastic regularization (dropout); inference
	// contexts leave it false.
	Train bool
	// DropRate is the inverted-dropout probability applied to each
	// GCN layer's input when Train is set (0 disables).
	DropRate float64
	// Rng drives dropout masks; required when DropRate > 0 and Train.
	Rng *rng.RNG
	// Rows are the rows of a layer's output its caller reads, strictly
	// ascending; nil means every row. Only the last layer of a stack and
	// its head can be given a list (every layer below feeds the last
	// one's propagation, which reads every row), and only core's
	// Trainer.StepOn and baseline.FullBatch set one. A GCNLayer or Dense
	// given a list computes those rows, +0 in the others, and its
	// backward pass reads them alone: the every-row pass's bits on
	// finite values (see the package comment).
	Rows []int
	// InRows, when set, says where a layer's input rows are: vertex i
	// of G is row InRows[i] of the matrix the layer is handed (a
	// subgraph's vertex ids into the feature table), which may have any
	// number of rows; nil means row i. Only the first layer of a stack is
	// given one: core's Model.Forward keeps it from every layer above.
	// A layer that runs both its products on every row reads those rows
	// in place (mat.MulPair, mat.MulATPair); any other gathers them
	// into a matrix of its own first, as its caller used to.
	InRows []int
}

func (c *Ctx) time(name string, fn func()) {
	if c.Timer != nil {
		c.Timer.Time(name, fn)
		return
	}
	fn()
}

// Param is one trainable tensor with its gradient and Adam state. The
// backward pass of the layer that holds it sets Grad whole.
type Param struct {
	Name string
	W    *mat.Dense
	Grad *mat.Dense
	m, v *mat.Dense // Adam moments, lazily allocated
}

// NewParam allocates a parameter with zeroed weight and gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: mat.New(rows, cols), Grad: mat.New(rows, cols)}
}

// GlorotInit fills p.W with Glorot/Xavier-uniform values.
func (p *Param) GlorotInit(r *rng.RNG) {
	limit := math.Sqrt(6 / float64(p.W.Rows+p.W.Cols))
	for i := range p.W.Data {
		p.W.Data[i] = (2*r.Float64() - 1) * limit
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the weight-update rule of
// Algorithm 1 line 13.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	// Workers is the goroutine budget of Step (<= 1: serial). Every
	// element's update is its own, so it never changes a bit.
	Workers int
	t       int
}

// adamGrain is the fewest elements of a parameter worth a worker of
// their own in Step: each is a few divisions and a square root.
const adamGrain = 4096

// NewAdam returns an Adam optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter from its Grad:
// mat.Adam over element ranges split across Workers.
func (a *Adam) Step(params []*Param) {
	a.t++
	c := mat.AdamCoef{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		C1: 1 - math.Pow(a.Beta1, float64(a.t)),
		C2: 1 - math.Pow(a.Beta2, float64(a.t)),
		LR: a.LR, Eps: a.Epsilon,
	}
	for _, p := range params {
		if p.m == nil {
			p.m = mat.New(p.W.Rows, p.W.Cols)
			p.v = mat.New(p.W.Rows, p.W.Cols)
		}
		w, g, m, v := p.W.Data, p.Grad.Data, p.m.Data, p.v.Data
		perf.ParallelMin(len(w), adamGrain, a.Workers, func(_, lo, hi int) {
			mat.Adam(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], &c)
		})
	}
}

// Steps returns the number of updates applied so far.
func (a *Adam) Steps() int { return a.t }

// GCNLayer implements one graph-convolution layer:
//
//	H_neigh = MeanAgg(H)                 (feature propagation)
//	Z_self, Z_neigh = H·W_self, H_neigh·W_neigh   (weight application)
//	out     = [ ReLU(Z_self) | ReLU(Z_neigh) ]    (concat + optional activation)
//
// Output width is 2*OutDim because of the concatenation. MeanAgg is a
// matrix A, so Z_neigh = A·(H·W_neigh) as well: a layer for which
// PropagatesOutput holds computes it in that order and propagates
// OutDim columns instead of InDim.
type GCNLayer struct {
	InDim, OutDim int
	WSelf, WNeigh *Param
	// Activate disables the ReLU when false (the classifier head
	// prefers raw features from the last layer in some stacks).
	Activate bool

	// Cached activations from the last Forward, consumed by Backward;
	// lastOut is also the matrix Forward returns. lastHNeigh is held
	// only by a layer that propagates its input. The input's rows are
	// lastH's rows lastIn (Ctx.InRows), every row for nil.
	lastH, lastHNeigh, lastOut *mat.Dense
	lastIn                     []int
	lastMask                   []float64

	// Buffers reused across steps so the hot path allocates nothing:
	// bufDH is the matrix Backward returns, the rest are the layer's
	// own intermediates. A returned matrix, like lastOut, belongs to
	// the layer and is valid until the layer's next Forward or
	// Backward. Every kernel writing into these fully overwrites its
	// destination, so reuse never changes the arithmetic and the
	// determinism contract holds. bufP (H·W_neigh) and bufDP (its
	// gradient) are a layer's that propagates its output, bufDHNeigh
	// one's that does not. bufIn is the layer's own copy of its input,
	// where it needs one: under dropout, and where it gathers the rows
	// Ctx.InRows names.
	bufIn, bufZSelf, bufZNeigh   *mat.Dense
	bufDZSelf, bufDZNeigh, bufDH *mat.Dense
	bufDHNeigh, bufBack          *mat.Dense
	bufP, bufDP                  *mat.Dense
	bufMask                      []float64
}

// reluGrain is the fewest elements of an activation matrix worth a
// worker of their own in the rectifier and its gate; each row is owned
// by one chunk, so the split never shows in a result.
const reluGrain = 4096

// NewGCNLayer constructs a layer with Glorot-initialized weights.
func NewGCNLayer(in, out int, r *rng.RNG) *GCNLayer {
	l := &GCNLayer{
		InDim: in, OutDim: out,
		WSelf:    NewParam("w_self", in, out),
		WNeigh:   NewParam("w_neigh", in, out),
		Activate: true,
	}
	l.WSelf.GlorotInit(r)
	l.WNeigh.GlorotInit(r)
	return l
}

// Params returns the trainable parameters of the layer.
func (l *GCNLayer) Params() []*Param { return []*Param{l.WSelf, l.WNeigh} }

// OutWidth is the post-concatenation feature width.
func (l *GCNLayer) OutWidth() int { return 2 * l.OutDim }

// PropagatesOutput reports whether the layer computes its neighbor
// half as A·(H·W_neigh), propagating OutDim columns, rather than as
// (A·H)·W_neigh, propagating InDim: when 2·OutDim < InDim. A step
// propagates OutDim columns twice in that order (forward, and the
// transpose under dW_neigh = Hᵀ·(Aᵀ·dZ_neigh)) and InDim columns once
// in the other, twice below the first layer (the input gradient), so
// the rule is exact for a first layer and conservative above it. It
// reads the shape alone, so the order is the same at every worker
// count, block size, row list and kernel level, and inference
// (core.FullEmbeddings) takes it too.
func (l *GCNLayer) PropagatesOutput() bool { return 2*l.OutDim < l.InDim }

// Forward runs the layer over ctx.G and returns the n x 2*OutDim
// output, caching intermediates for Backward. The output is the
// layer's, until its next call. Under ctx.Rows only the listed rows are
// computed, the others +0 (Combine of two +0 rows); dropout still
// draws for every element of h, which the propagation reads whole, and
// H·W_neigh is still formed on every row when the layer propagates its
// output. Under ctx.InRows h is read through the list (see Ctx), in
// place where the layer takes both its products on every row and
// applies no dropout: the first layer of a stack of two or more that
// propagates its output.
func (l *GCNLayer) Forward(ctx *Ctx, h *mat.Dense) *mat.Dense {
	n, in := ctx.G.N, ctx.InRows
	if in == nil && h.Rows != n || in != nil && len(in) != n {
		panic("nn: feature rows do not match graph vertices")
	}
	pair := l.PropagatesOutput() && ctx.Rows == nil
	dropout := ctx.Train && ctx.DropRate > 0
	l.lastMask = nil
	if dropout && ctx.Rng == nil {
		panic("nn: dropout requires Ctx.Rng")
	}
	// The copy stays outside the timed segments, as a caller's gather
	// of the rows was.
	if dropout || in != nil && !pair {
		own := mat.Reuse(&l.bufIn, n, h.Cols)
		if in != nil {
			mat.GatherRowsP(own, h, in, ctx.Workers)
		} else {
			own.CopyFrom(h)
		}
		h, in = own, nil
	}
	if dropout {
		l.lastMask = dropoutInPlace(h, ctx.DropRate, ctx.Rng, l.bufMask)
		l.bufMask = l.lastMask
	}
	l.lastH, l.lastIn = h, in
	zSelf, zNeigh := mat.Reuse(&l.bufZSelf, n, l.OutDim), mat.Reuse(&l.bufZNeigh, n, l.OutDim)
	if l.PropagatesOutput() {
		// Z_neigh = MeanAgg(H·W_neigh): the product over every row,
		// all of which the propagation reads.
		p := mat.Reuse(&l.bufP, n, l.OutDim)
		ctx.time("weight", func() {
			if pair {
				mat.MulPair(zSelf, p, h, in, l.WSelf.W, l.WNeigh.W, ctx.Workers)
				return
			}
			mat.MulList(zSelf, h, l.WSelf.W, ctx.Rows, ctx.Workers)
			mat.Mul(p, h, l.WNeigh.W, ctx.Workers)
		})
		ctx.time("featprop", func() { partition.PropagateList(zNeigh, p, ctx.G, partition.NormDst, ctx.Rows, ctx.Q, ctx.Workers) })
	} else {
		hNeigh := mat.Reuse(&l.lastHNeigh, n, l.InDim)
		ctx.time("featprop", func() { partition.PropagateList(hNeigh, h, ctx.G, partition.NormDst, ctx.Rows, ctx.Q, ctx.Workers) })
		ctx.time("weight", func() {
			mat.MulList(zSelf, h, l.WSelf.W, ctx.Rows, ctx.Workers)
			mat.MulList(zNeigh, hNeigh, l.WNeigh.W, ctx.Rows, ctx.Workers)
		})
	}
	out := mat.Reuse(&l.lastOut, n, 2*l.OutDim)
	l.Combine(out, zSelf, zNeigh, ctx.Workers)
	return out
}

// Combine writes the layer output out = [ReLU(zSelf) | ReLU(zNeigh)],
// or [zSelf | zNeigh] with Activate off: the concatenation and the
// activation in one row-owned pass. CombineGrad is its backward pass:
// dOut's two column halves into dZSelf and dZNeigh, gated by Combine's
// out. ReLU(z) > 0 exactly where z > 0 (mat.Relu's contract: a NaN, a
// negative and a zero of either sign all become +0), so gating by the
// output is gating by the pre-activation, to the bit.
func (l *GCNLayer) Combine(out, zSelf, zNeigh *mat.Dense, workers int) {
	l.eachRow(out, zSelf, zNeigh, workers, func(i, f int) {
		row := out.Row(i)
		if !l.Activate {
			copy(row[:f], zSelf.Row(i))
			copy(row[f:], zNeigh.Row(i))
			return
		}
		mat.Relu(row[:f], zSelf.Row(i))
		mat.Relu(row[f:], zNeigh.Row(i))
	})
}

// CombineGrad is Combine's backward pass (see Combine). out and dOut
// are n x 2*OutDim.
func (l *GCNLayer) CombineGrad(dZSelf, dZNeigh, out, dOut *mat.Dense, workers int) {
	if out.Rows != dOut.Rows || out.Cols != dOut.Cols {
		panic("nn: CombineGrad shape mismatch")
	}
	l.eachRow(dOut, dZSelf, dZNeigh, workers, func(i, f int) {
		o, d := out.Row(i), dOut.Row(i)
		if !l.Activate {
			copy(dZSelf.Row(i), d[:f])
			copy(dZNeigh.Row(i), d[f:])
			return
		}
		mat.ReluGate(dZSelf.Row(i), o[:f], d[:f])
		mat.ReluGate(dZNeigh.Row(i), o[f:], d[f:])
	})
}

// eachRow runs fn(i, OutDim) on every row of whole, n x 2*OutDim, in
// row-owned chunks of about reluGrain elements, after checking that a
// and b are n x OutDim.
func (l *GCNLayer) eachRow(whole, a, b *mat.Dense, workers int, fn func(i, f int)) {
	f := l.OutDim
	if whole.Cols != 2*f || a.Cols != f || b.Cols != f || a.Rows != whole.Rows || b.Rows != whole.Rows {
		panic("nn: Combine shape mismatch")
	}
	perf.ParallelMin(whole.Rows, max(1, reluGrain/(2*f)), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i, f)
		}
	})
}

// Backward consumes dOut (gradient w.r.t. the layer output), sets the
// parameter gradients, and returns the gradient w.r.t. the layer
// input, which is the layer's until its next call.
func (l *GCNLayer) Backward(ctx *Ctx, dOut *mat.Dense) *mat.Dense {
	l.BackwardParams(ctx, dOut)
	dZSelf, dZNeigh := l.bufDZSelf, l.bufDZNeigh
	n := dOut.Rows

	// dH = dZ_self·W_selfᵀ + back, the neighbor half's share: under
	// ctx.Rows the products of listed rows are +0 in the others, and the
	// transpose aggregation spreads the listed ones to every row.
	dH, back := mat.Reuse(&l.bufDH, n, l.InDim), mat.Reuse(&l.bufBack, n, l.InDim)
	if l.PropagatesOutput() {
		// back = dP·W_neighᵀ, dP = MeanAggᵀ(dZ_neigh) (BackwardParams).
		ctx.time("weight", func() {
			mat.MulBTList(dH, dZSelf, l.WSelf.W, ctx.Rows, ctx.Workers)
			mat.MulBT(back, l.bufDP, l.WNeigh.W, ctx.Workers)
		})
	} else {
		// back = MeanAggᵀ(dZ_neigh·W_neighᵀ).
		dHNeigh := mat.Reuse(&l.bufDHNeigh, n, l.InDim)
		ctx.time("weight", func() {
			mat.MulBTList(dH, dZSelf, l.WSelf.W, ctx.Rows, ctx.Workers)
			mat.MulBTList(dHNeigh, dZNeigh, l.WNeigh.W, ctx.Rows, ctx.Workers)
		})
		ctx.time("featprop", func() { partition.Propagate(back, dHNeigh, ctx.G, partition.NormSrc, ctx.Q, ctx.Workers) })
	}
	mat.AddScaledP(dH, back, 1, ctx.Workers)
	for i, m := range l.lastMask {
		dH.Data[i] *= m
	}
	return dH
}

// BackwardParams is the part of Backward that sets the parameter
// gradients, without the gradient w.r.t. the layer input: what the
// first layer of a stack needs, whose input is data. The input
// gradient costs two GEMMs at the stack's widest feature dimension and,
// for a layer that propagates its input, a transpose aggregation there.
func (l *GCNLayer) BackwardParams(ctx *Ctx, dOut *mat.Dense) {
	if l.lastOut == nil {
		panic("nn: Backward called before Forward")
	}
	n := dOut.Rows
	dZSelf, dZNeigh := mat.Reuse(&l.bufDZSelf, n, l.OutDim), mat.Reuse(&l.bufDZNeigh, n, l.OutDim)
	l.CombineGrad(dZSelf, dZNeigh, l.lastOut, dOut, ctx.Workers)

	// dW_self = Hᵀ·dZ_self; dW_neigh = H_neighᵀ·dZ_neigh, or Hᵀ·dP with
	// dP = MeanAggᵀ(dZ_neigh) on every row for a layer that propagates
	// its output. Each is written straight into its gradient (see
	// mat.MulAT on -0).
	if !l.PropagatesOutput() {
		ctx.time("weight", func() {
			mat.MulATList(l.WSelf.Grad, l.lastH, dZSelf, ctx.Rows, ctx.Workers)
			mat.MulATList(l.WNeigh.Grad, l.lastHNeigh, dZNeigh, ctx.Rows, ctx.Workers)
		})
		return
	}
	dP := mat.Reuse(&l.bufDP, n, l.OutDim)
	ctx.time("featprop", func() { partition.Propagate(dP, dZNeigh, ctx.G, partition.NormSrc, ctx.Q, ctx.Workers) })
	ctx.time("weight", func() {
		if ctx.Rows == nil {
			mat.MulATPair(l.WSelf.Grad, l.WNeigh.Grad, l.lastH, l.lastIn, dZSelf, dP, ctx.Workers)
			return
		}
		mat.MulATList(l.WSelf.Grad, l.lastH, dZSelf, ctx.Rows, ctx.Workers)
		mat.MulAT(l.WNeigh.Grad, l.lastH, dP, ctx.Workers)
	})
}

// dropoutInPlace zeroes each element with probability rate and scales
// survivors by 1/(1-rate) (inverted dropout), returning the applied
// multiplier per element for the backward pass. buf, when large
// enough, provides the mask storage (every entry is overwritten).
func dropoutInPlace(h *mat.Dense, rate float64, r *rng.RNG, buf []float64) []float64 {
	keep := 1 - rate
	inv := 1 / keep
	mask := slices.Grow(buf[:0], len(h.Data))[:len(h.Data)]
	for i := range h.Data {
		if r.Float64() < keep {
			mask[i] = inv
			h.Data[i] *= inv
		} else {
			mask[i] = 0
			h.Data[i] = 0
		}
	}
	return mask
}

// Dense is a fully connected classification head:
// logits = H·W + b (broadcast).
type Dense struct {
	InDim, OutDim int
	W, B          *Param
	lastH         *mat.Dense
	// The matrices Forward and Backward return, the head's until its
	// next call (see GCNLayer's buffers).
	bufOut, bufDH *mat.Dense
}

// NewDense constructs a Glorot-initialized dense layer.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		InDim: in, OutDim: out,
		W: NewParam("w_out", in, out),
		B: NewParam("b_out", 1, out),
	}
	d.W.GlorotInit(r)
	return d
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward returns logits = h·W + b (Apply under ctx.Rows), the head's
// until its next call, and keeps h for Backward.
func (d *Dense) Forward(ctx *Ctx, h *mat.Dense) *mat.Dense {
	out := mat.Reuse(&d.bufOut, h.Rows, d.OutDim)
	ctx.time("weight", func() { d.Apply(out, h, ctx.Rows, ctx.Workers) })
	d.lastH = h
	return out
}

// Apply writes logits = h·W + b into out for the rows that rows lists
// (strictly ascending; nil: every row), +0 in the others, on up to
// workers goroutines: the one head arithmetic, reading only the
// weights, of training, evaluation and serving.
func (d *Dense) Apply(out, h *mat.Dense, rows []int, workers int) {
	mat.MulList(out, h, d.W.W, rows, workers)
	perf.ParallelMin(rowCount(rows, out.Rows), 64, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			mat.AddTo(out.Row(rowAt(rows, t)), d.B.W.Data)
		}
	})
}

// Backward sets dW and dB and returns dH, the head's until its next
// call: under ctx.Rows from the listed rows of dOut, dH +0 in the
// others.
func (d *Dense) Backward(ctx *Ctx, dOut *mat.Dense) *mat.Dense {
	dH := mat.Reuse(&d.bufDH, dOut.Rows, d.InDim)
	ctx.time("weight", func() {
		mat.MulATList(d.W.Grad, d.lastH, dOut, ctx.Rows, ctx.Workers)
		mat.MulBTList(dH, dOut, d.W.W, ctx.Rows, ctx.Workers)
	})
	d.B.Grad.Zero()
	for t := 0; t < rowCount(ctx.Rows, dOut.Rows); t++ {
		mat.AddTo(d.B.Grad.Data, dOut.Row(rowAt(ctx.Rows, t)))
	}
	return dH
}

// rowCount is the number of rows a row list names out of n: n for nil.
func rowCount(rows []int, n int) int {
	if rows == nil {
		return n
	}
	return len(rows)
}

// rowAt is the row at position t of a row list: t for nil.
func rowAt(rows []int, t int) int {
	if rows == nil {
		return t
	}
	return rows[t]
}
