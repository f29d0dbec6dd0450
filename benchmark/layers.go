package main

import (
	"encoding/json"
	"runtime"
	"time"

	"gsgcn"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
	"gsgcn/internal/wire"
)

// Direct timings of single layers for the traced run: each calls a
// leaf package's public function on the workload's own shapes, with a
// span around the call, and reports a median.

// timeCalls runs fn reps times after one untimed call, each timed call
// a span, and returns the median duration.
func timeCalls(tr *tracer, name string, reps int, fn func()) time.Duration {
	fn()
	xs := make([]float64, reps)
	for i := range xs {
		id := tr.begin(name, 0)
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0))
		tr.end(id)
	}
	return time.Duration(median(xs))
}

// allocsPer counts heap allocations per call of fn, averaged over reps.
func allocsPer(reps int, fn func()) float64 {
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps)
}

func fillDense(m *mat.Dense, r *prng) {
	for i := range m.Data {
		m.Data[i] = r.float() - 0.5
	}
}

// traceTrainKernels times the leaf kernels of a training step with
// one worker on one core, like the gated training numbers.
func traceTrainKernels(rc *runCtx, one *trainRun, ds *gsgcn.Dataset) error {
	cfg := one.tr.Model.Config()
	const workers = 1
	tr := rc.tr

	// sampler: serial SampleSubgraph, then the pool with nobody
	// consuming anything but the subgraphs themselves.
	fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: cfg.Eta, DegCap: cfg.DegCap}
	const draws = 20
	var verts, edges float64
	i := 0
	var sub *gsgcn.Subgraph
	d := timeCalls(tr, "sampler.SampleSubgraph", draws, func() {
		sub = sampler.SampleSubgraph(ds.G, fr, rng.NewStream(rc.seed, i))
		verts += float64(sub.N)
		edges += float64(sub.NumEdges())
		i++
	})
	rc.set("sampler.subgraph_ms", ms(d), draws)
	rc.set("sampler.subgraph_vertices", verts/(draws+1), draws+1)
	rc.set("sampler.subgraph_edges", edges/(draws+1), draws+1)

	pool := sampler.NewPool(ds.G, fr, workers, rc.seed)
	pool.Workers = workers
	pool.Next() // starts the pipeline
	drained, t0 := 0, time.Now()
	pid := tr.begin("sampler.Pool.Next drain", 0)
	for time.Since(t0) < 500*time.Millisecond {
		pool.Next()
		drained++
	}
	tr.end(pid)
	rc.set("sampler.pool_subgraphs_per_s", float64(drained)/time.Since(t0).Seconds(), drained)

	// partition: one Propagate over the last sampled subgraph on the
	// input feature width, the widest propagation of a step.
	n, f := sub.N, ds.FeatureDim()
	q := one.tr.Model.CtxForGraph(sub.CSR, f, nil).Q
	r := newPRNG(rc.seed, 0x9A7)
	src, dst := mat.New(n, f), mat.New(n, f)
	fillDense(src, r)
	d = timeCalls(tr, "partition.Propagate", 20, func() {
		partition.Propagate(dst, src, sub.CSR, partition.NormDst, q, workers)
	})
	// Bytes are computed from shapes, not measured: one source row read
	// per directed edge and one destination row written per vertex.
	bytes := float64(sub.NumDirectedEdges()+int64(n)) * float64(f) * 8
	rc.set("partition.propagate_ms", ms(d), 20)
	rc.set("partition.propagate_gbs", bytes/d.Seconds()/1e9, 20)
	rc.set("partition.q", float64(q), 1)

	// mat: the three GEMM forms of a step at both layer shapes;
	// the rate is total floating-point operations over total time.
	h := cfg.Hidden
	type shape struct{ in, out int }
	var mulT, atT, btT time.Duration
	var flops, allocs float64
	for _, s := range []shape{{f, h}, {2 * h, h}} {
		a, w, z := mat.New(n, s.in), mat.New(s.in, s.out), mat.New(n, s.out)
		fillDense(a, r)
		fillDense(w, r)
		dw, da := mat.New(s.in, s.out), mat.New(n, s.in)
		mulT += timeCalls(tr, "mat.Mul", 10, func() { mat.Mul(z, a, w, workers) })
		atT += timeCalls(tr, "mat.MulAT", 10, func() { mat.MulAT(dw, a, z, workers) })
		btT += timeCalls(tr, "mat.MulBT", 10, func() { mat.MulBT(da, z, w, workers) })
		flops += 2 * float64(n) * float64(s.in) * float64(s.out)
		allocs += allocsPer(10, func() { mat.Mul(z, a, w, workers) })
	}
	rc.set("mat.mul_gflops", flops/mulT.Seconds()/1e9, 20)
	rc.set("mat.mulat_gflops", flops/atT.Seconds()/1e9, 20)
	rc.set("mat.mulbt_gflops", flops/btT.Seconds()/1e9, 20)
	rc.set("mat.mul_allocs_per_op", allocs/2, 20)

	idx := make([]int, n)
	for i, v := range sub.Orig {
		idx[i] = int(v)
	}
	h0 := mat.New(n, f)
	d = timeCalls(tr, "mat.GatherRowsP", 20, func() { mat.GatherRowsP(h0, ds.Features, idx, workers) })
	rc.set("mat.gather_ms", ms(d), 20)

	// nn: Adam over a scratch model of the same shape (the trained
	// model's weights are left alone); gradients are zero.
	scratch := gsgcn.NewModel(ds, cfg)
	opt := nn.NewAdam(0.01)
	params := scratch.Params()
	d = timeCalls(tr, "nn.Adam.Step", 20, func() { opt.Step(params) })
	rc.set("nn.adam_ms_per_step", ms(d), 20)

	return nil
}

// traceDispatch times perf.Parallel fanning an empty body out to every
// core: the fixed cost each parallel kernel call pays.
func traceDispatch(rc *runCtx) {
	d := timeCalls(rc.tr, "perf.Parallel x1000", 20, func() {
		for i := 0; i < 1000; i++ {
			perf.Parallel(rc.nproc, rc.nproc, func(_, _, _ int) {})
		}
	})
	rc.set("perf.dispatch_us", us(d)/1000, 20)
}

// traceHost records how late this host wakes a sleeping goroutine:
// the measurement behind the closed-loop load shape (an open loop
// needs timely wake-ups).
func traceHost(rc *runCtx) {
	var late []float64
	id := rc.tr.begin("host.sleep probe", 0)
	for t0 := time.Now(); time.Since(t0) < time.Second; {
		s0 := time.Now()
		time.Sleep(time.Millisecond)
		late = append(late, ms(time.Since(s0)-time.Millisecond))
	}
	rc.tr.end(id)
	rc.set("host.timer_late_p50_ms", percentile(late, 50), len(late))
	rc.set("host.timer_late_p99_ms", percentile(late, 99), len(late))
}

// traceWire times the binary and JSON encodings of one embed answer
// of rows x dim, the payload the point workloads move.
func traceWire(rc *runCtx, rows, dim int) error {
	r := newPRNG(rc.seed, 0x317E)
	msg := &wire.EmbedResponse{Version: 1, ModelVersion: 1, Dim: dim}
	for i := 0; i < rows; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = r.float() - 0.5
		}
		msg.IDs = append(msg.IDs, r.intn(1<<20))
		msg.Vectors = append(msg.Vectors, v)
	}
	frame, err := wire.Encode(msg)
	if err != nil {
		return err
	}
	if _, _, err := wire.Decode(frame); err != nil {
		return err
	}
	const batch = 200
	enc := timeCalls(rc.tr, "wire.Encode x200", 20, func() {
		for i := 0; i < batch; i++ {
			_, _ = wire.Encode(msg) // checked once above
		}
	})
	dec := timeCalls(rc.tr, "wire.Decode x200", 20, func() {
		for i := 0; i < batch; i++ {
			_, _, _ = wire.Decode(frame) // checked once above
		}
	})
	jenc := timeCalls(rc.tr, "json.Marshal x200", 20, func() {
		for i := 0; i < batch; i++ {
			_, _ = json.Marshal(msg) // finite floats and ints cannot fail
		}
	})
	rc.set("wire.encode_ns", float64(enc)/batch, 20)
	rc.set("wire.decode_ns", float64(dec)/batch, 20)
	rc.set("wire.json_encode_ns", float64(jenc)/batch, 20)
	rc.set("wire.allocs_per_msg", allocsPer(batch, func() {
		_, _ = wire.Encode(msg)
		_, _, _ = wire.Decode(frame)
	}), batch)
	return nil
}
