// Package nn implements the neural-network kernels of GCN training:
// the GCN layer (mean feature aggregation + self/neighbor weight
// application + concatenation + ReLU, exactly Algorithm 1 lines 6-9),
// a dense classification head, sigmoid-BCE and softmax-CE losses,
// the Adam optimizer, and F1 metrics.
//
// All backward passes are hand-derived and verified against numerical
// gradients in the tests. The feature-aggregation step is routed
// through the partition package so that training exercises the
// paper's cache-aware feature-dimension partitioning (Section V).
package nn

import (
	"math"

	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// Ctx carries the execution environment of one forward/backward pass:
// the (sub)graph to propagate over, the feature-partition count Q,
// the real worker goroutine budget, and an optional timer that
// receives the "featprop" and "weight" segments used by the Fig. 3
// breakdown.
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
}

func (c *Ctx) time(name string, fn func()) {
	if c.Timer != nil {
		c.Timer.Time(name, fn)
		return
	}
	fn()
}

// Param is one trainable tensor with its gradient and Adam state.
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

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Adam is the Adam optimizer (Kingma & Ba), the weight-update rule of
// Algorithm 1 line 13.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	t       int
}

// NewAdam returns an Adam optimizer with the usual defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter from its Grad.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.m == nil {
			p.m = mat.New(p.W.Rows, p.W.Cols)
			p.v = mat.New(p.W.Rows, p.W.Cols)
		}
		for i, g := range p.Grad.Data {
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mhat := p.m.Data[i] / c1
			vhat := p.v.Data[i] / c2
			p.W.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
		}
	}
}

// Steps returns the number of updates applied so far.
func (a *Adam) Steps() int { return a.t }

// GCNLayer implements one graph-convolution layer:
//
//	H_neigh = MeanAgg(H)                 (feature propagation)
//	Z       = [ H·W_self | H_neigh·W_neigh ]   (weight application + concat)
//	out     = ReLU(Z)                     (optional activation)
//
// Output width is 2*OutDim because of the concatenation.
type GCNLayer struct {
	InDim, OutDim int
	WSelf, WNeigh *Param
	// Activate disables the ReLU when false (the classifier head
	// prefers raw features from the last layer in some stacks).
	Activate bool
	// Agg selects the neighbor aggregation operator (default mean,
	// the paper's choice).
	Agg Aggregator

	// Cached activations from the last Forward, consumed by Backward.
	lastH, lastHNeigh, lastZ *mat.Dense
	lastMask                 []float64

	// Persistent scratch reused across steps so the hot path does not
	// pay an allocation per kernel call (matrices returned to callers
	// are still freshly allocated — only layer-internal intermediates
	// recycle their backing arrays). Every kernel writing into these
	// fully overwrites its destination, so reuse never changes the
	// arithmetic and the determinism contract holds.
	bufDrop, bufZSelf, bufZNeigh *mat.Dense
	bufDZ, bufDZSelf, bufDZNeigh *mat.Dense
	bufDW, bufDHNeigh, bufBack   *mat.Dense
	bufMask                      []float64
}

// reluGrain is the fewest elements of an activation matrix worth a
// worker of their own in the rectifier and its gate; each element is
// owned by one chunk, so the split never shows in a result.
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

// Forward runs the layer over ctx.G and returns the n x 2*OutDim
// output, caching intermediates for Backward.
func (l *GCNLayer) Forward(ctx *Ctx, h *mat.Dense) *mat.Dense {
	n := h.Rows
	if n != ctx.G.N {
		panic("nn: feature rows do not match graph vertices")
	}
	l.lastMask = nil
	if ctx.Train && ctx.DropRate > 0 {
		if ctx.Rng == nil {
			panic("nn: dropout requires Ctx.Rng")
		}
		l.bufDrop = mat.Reuse(l.bufDrop, n, h.Cols)
		l.bufDrop.CopyFrom(h)
		h = l.bufDrop
		l.lastMask = dropoutInPlace(h, ctx.DropRate, ctx.Rng, l.bufMask)
		l.bufMask = l.lastMask
	}
	hNeigh := mat.Reuse(l.lastHNeigh, n, l.InDim)
	ctx.time("featprop", func() {
		aggregate(hNeigh, h, ctx.G, l.Agg, ctx.Q, ctx.Workers)
	})
	zSelf := mat.Reuse(l.bufZSelf, n, l.OutDim)
	zNeigh := mat.Reuse(l.bufZNeigh, n, l.OutDim)
	l.bufZSelf, l.bufZNeigh = zSelf, zNeigh
	ctx.time("weight", func() {
		mat.Mul(zSelf, h, l.WSelf.W, ctx.Workers)
		mat.Mul(zNeigh, hNeigh, l.WNeigh.W, ctx.Workers)
	})
	z := mat.Reuse(l.lastZ, n, 2*l.OutDim)
	mat.ConcatColsP(z, zSelf, zNeigh, ctx.Workers)
	l.lastH, l.lastHNeigh, l.lastZ = h, hNeigh, z
	if !l.Activate {
		return z.Clone()
	}
	out := mat.New(n, 2*l.OutDim)
	perf.ParallelMin(len(z.Data), reluGrain, ctx.Workers, func(_, lo, hi int) {
		mat.Relu(out.Data[lo:hi], z.Data[lo:hi])
	})
	return out
}

// Backward consumes dOut (gradient w.r.t. the layer output),
// accumulates parameter gradients, and returns the gradient w.r.t.
// the layer input.
func (l *GCNLayer) Backward(ctx *Ctx, dOut *mat.Dense) *mat.Dense {
	l.BackwardParams(ctx, dOut)
	dZSelf, dZNeigh := l.bufDZSelf, l.bufDZNeigh
	n := dOut.Rows

	// dH = dZ_self·W_selfᵀ + MeanAggᵀ(dZ_neigh·W_neighᵀ). dH is
	// returned to the caller, so it stays freshly allocated.
	dH := mat.New(n, l.InDim)
	dHNeigh := mat.Reuse(l.bufDHNeigh, n, l.InDim)
	l.bufDHNeigh = dHNeigh
	ctx.time("weight", func() {
		mat.MulBT(dH, dZSelf, l.WSelf.W, ctx.Workers)
		mat.MulBT(dHNeigh, dZNeigh, l.WNeigh.W, ctx.Workers)
	})
	back := mat.Reuse(l.bufBack, n, l.InDim)
	l.bufBack = back
	ctx.time("featprop", func() {
		aggregateT(back, dHNeigh, ctx.G, l.Agg, ctx.Q, ctx.Workers)
	})
	mat.AddScaledP(dH, back, 1, ctx.Workers)
	if l.lastMask != nil {
		for i, m := range l.lastMask {
			dH.Data[i] *= m
		}
	}
	return dH
}

// BackwardParams is the part of Backward that accumulates the
// parameter gradients, without the gradient w.r.t. the layer input:
// what the first layer of a stack needs, whose input is data. The
// input gradient costs two GEMMs, a transpose aggregation and an
// n x InDim allocation at the stack's widest feature dimension.
func (l *GCNLayer) BackwardParams(ctx *Ctx, dOut *mat.Dense) {
	if l.lastZ == nil {
		panic("nn: Backward called before Forward")
	}
	n := dOut.Rows
	dZ := mat.Reuse(l.bufDZ, n, 2*l.OutDim)
	l.bufDZ = dZ
	if l.Activate {
		perf.ParallelMin(len(l.lastZ.Data), reluGrain, ctx.Workers, func(_, lo, hi int) {
			mat.ReluGate(dZ.Data[lo:hi], l.lastZ.Data[lo:hi], dOut.Data[lo:hi])
		})
	} else {
		dZ.CopyFrom(dOut)
	}
	dZSelf := mat.Reuse(l.bufDZSelf, n, l.OutDim)
	dZNeigh := mat.Reuse(l.bufDZNeigh, n, l.OutDim)
	l.bufDZSelf, l.bufDZNeigh = dZSelf, dZNeigh
	mat.SplitColsP(dZSelf, dZNeigh, dZ, ctx.Workers)

	ctx.time("weight", func() {
		// dW_self += Hᵀ·dZ_self ; dW_neigh += H_neighᵀ·dZ_neigh.
		dw := mat.Reuse(l.bufDW, l.InDim, l.OutDim)
		l.bufDW = dw
		mat.MulAT(dw, l.lastH, dZSelf, ctx.Workers)
		mat.AddScaled(l.WSelf.Grad, dw, 1)
		mat.MulAT(dw, l.lastHNeigh, dZNeigh, ctx.Workers)
		mat.AddScaled(l.WNeigh.Grad, dw, 1)
	})
}

// dropoutInPlace zeroes each element with probability rate and scales
// survivors by 1/(1-rate) (inverted dropout), returning the applied
// multiplier per element for the backward pass. buf, when large
// enough, provides the mask storage (every entry is overwritten).
func dropoutInPlace(h *mat.Dense, rate float64, r *rng.RNG, buf []float64) []float64 {
	keep := 1 - rate
	inv := 1 / keep
	mask := buf
	if cap(mask) < len(h.Data) {
		mask = make([]float64, len(h.Data))
	} else {
		mask = mask[:len(h.Data)]
	}
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
	bufDW         *mat.Dense // reused dW scratch (see GCNLayer buffers)
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

// Forward returns logits = h·W + b.
func (d *Dense) Forward(ctx *Ctx, h *mat.Dense) *mat.Dense {
	out := mat.New(h.Rows, d.OutDim)
	ctx.time("weight", func() {
		mat.Mul(out, h, d.W.W, ctx.Workers)
	})
	perf.ParallelMin(out.Rows, 64, ctx.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Row(i)
			for j := range row {
				row[j] += d.B.W.Data[j]
			}
		}
	})
	d.lastH = h
	return out
}

// Backward accumulates dW, dB and returns dH.
func (d *Dense) Backward(ctx *Ctx, dOut *mat.Dense) *mat.Dense {
	dH := mat.New(dOut.Rows, d.InDim)
	ctx.time("weight", func() {
		dw := mat.Reuse(d.bufDW, d.InDim, d.OutDim)
		d.bufDW = dw
		mat.MulAT(dw, d.lastH, dOut, ctx.Workers)
		mat.AddScaled(d.W.Grad, dw, 1)
		mat.MulBT(dH, dOut, d.W.W, ctx.Workers)
	})
	for i := 0; i < dOut.Rows; i++ {
		row := dOut.Row(i)
		for j := range row {
			d.B.Grad.Data[j] += row[j]
		}
	}
	return dH
}
