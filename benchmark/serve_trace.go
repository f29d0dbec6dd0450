package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"gsgcn"
	"gsgcn/pkg/client"
)

// traceServe is the traced run of a serving workload. It repeats the
// primary phase without and with request spans, runs the phases that
// only the per-layer budget needs (the HTTP transports on the point
// workload, the memo-hit phase on top-K), and sets every client.*,
// wire.*, serve.*, artifact.* and host.* metric the workload exercises.
func traceServe(rc *runCtx, sp *serveSpec, fx *fixtures, srv *server, sh shape, setups []float64, total time.Duration) error {
	if sp.fleet {
		rc.set("serve.ready_warm_s", median(setups), len(setups))
		rc.set("artifact.index_build_s", fx.indexBuildS, 1)
		rc.set("artifact.bytes", float64(fx.fleetBytes), 1)
	} else {
		rc.set("serve.ready_cold_s", median(setups), len(setups))
	}
	share := total * 40 / 100
	if sp.httpPhases || sp.hotPhase {
		share = total * 25 / 100
	}

	newPhase := func(name, transport string, depth int, d time.Duration, base uint64, tr *tracer) phase {
		warm, windows := split(d, sp.window())
		return phase{name: name, transport: transport, conns: rc.nproc, depth: depth,
			warm: warm, slice: sp.slice, slices: sp.slices, windows: windows, tailPct: sp.tailPct,
			gens: sp.gens(rc, base, rc.nproc*depth, sh.vertices), tr: tr}
	}

	// tcp, untraced: the reference numbers, with the server's batcher
	// and latency counters read either side.
	h0, err := readHealthStats(rc.ctx, srv)
	if err != nil {
		return err
	}
	sum0, cnt0, err := scrapeLatency(rc.ctx, srv)
	if err != nil {
		return err
	}
	first := newPhase("tcp", "tcp", sp.depth, share, 0, nil)
	first.reloads = sp.reloads
	plain, err := runPhase(rc, srv, sh, first)
	if err != nil {
		return err
	}
	h1, err := readHealthStats(rc.ctx, srv)
	if err != nil {
		return err
	}
	// The same phase with a span per request.
	second := newPhase("tcp.traced", "tcp", sp.depth, share, 2000, rc.tr)
	second.reloads = sp.reloads
	traced, err := runPhase(rc, srv, sh, second)
	if err != nil {
		return err
	}
	ok := float64(plain.ok)
	rc.set("client.qps_tcp", plain.qps(), plain.minWindow())
	rc.set("client.p50_tcp_ms", plain.p50(), plain.minWindow())
	rc.set("client.p99_tcp_ms", plain.tail(), plain.minWindow())
	rc.set("client.cpu_share", plain.selfCPU.total().Seconds()/(plain.selfCPU.total()+plain.srvCPU.total()).Seconds(), 1)
	rc.set("serve.cpu_user_ms_per_req", ms(plain.srvCPU.user)/ok, int(ok))
	rc.set("serve.cpu_sys_ms_per_req", ms(plain.srvCPU.sys)/ok, int(ok))
	rc.set("trace.overhead_ratio", plain.qps()/traced.qps(), traced.minWindow())
	if db := h1.Batches - h0.Batches; db > 0 {
		rc.set("serve.queries_per_batch", float64(h1.Queries-h0.Queries)/float64(db), int(db))
	}
	rc.set("serve.resident_bytes", float64(h1.ResidentB), 1)
	rc.set("serve.mapped_bytes", float64(h1.MappedB), 1)
	if n := len(plain.reloadMS); n > 0 {
		rc.set("serve.reload_ms_p50", median(plain.reloadMS), n)
		rc.set("serve.reloads", float64(n), n)
	}
	if sp.tailPct != 99 {
		rc.note("client.p99_tcp_ms holds p%g here: a window has too few samples for p99", sp.tailPct)
	}

	if sp.httpPhases {
		wireR, err := runPhase(rc, srv, sh, newPhase("wire", "wire", 1, share, 3000, rc.tr))
		if err != nil {
			return err
		}
		jsonR, err := runPhase(rc, srv, sh, newPhase("json", "json", 1, share, 4000, rc.tr))
		if err != nil {
			return err
		}
		rc.set("client.qps_wire", wireR.qps(), wireR.minWindow())
		rc.set("client.p50_wire_ms", wireR.p50(), wireR.minWindow())
		rc.set("client.p99_wire_ms", wireR.tail(), wireR.minWindow())
		rc.set("client.qps_json", jsonR.qps(), jsonR.minWindow())
		rc.set("client.p50_json_ms", jsonR.p50(), jsonR.minWindow())
		rc.set("client.p99_json_ms", jsonR.tail(), jsonR.minWindow())
		rc.set("wire.json_minus_wire_us", 1000*(jsonR.p50()-wireR.p50()), jsonR.minWindow())
		rc.set("serve.http_minus_tcp_us", 1000*(wireR.p50()-plain.p50()), wireR.minWindow())
		rc.note("serve.http_minus_tcp_us compares wire over HTTP at 1 in flight per connection with tcp at %d in flight, so queueing on tcp is in it", sp.depth)
	}
	if sp.hotPhase {
		// The memo is filled once per snapshot version and never evicts,
		// and the cold phases have filled it; a reload empties it so
		// that the hot keys can enter.
		if err := client.NewOps(srv.httpAddr, "", nil).Reload(rc.ctx); err != nil {
			return fmt.Errorf("reload before the hot phase: %w", err)
		}
		p := newPhase("hot", "tcp", 1, share, 5000, rc.tr)
		for i := range p.gens {
			p.gens[i] = newZipfTopK(rc.seed, 5000+uint64(i), sh.vertices)
		}
		p.tailPct = 99
		hotR, err := runPhase(rc, srv, sh, p)
		if err != nil {
			return err
		}
		rc.set("serve.topk_hot_qps", hotR.qps(), hotR.minWindow())
		rc.set("serve.topk_hot_p50_ms", hotR.p50(), hotR.minWindow())
		// Computed, not measured: every cold query scores every row.
		rc.set("serve.topk_scan_mrows_per_s", plain.qps()*float64(sh.vertices)/1e6, plain.minWindow())
	}
	sum1, cnt1, err := scrapeLatency(rc.ctx, srv)
	if err != nil {
		return err
	}
	if dc := cnt1 - cnt0; dc > 0 {
		rc.set("serve.server_mean_us", 1e6*(sum1-sum0)/dc, int(dc))
	}

	floor, err := traceEngine(rc, sp, fx, sh)
	if err != nil {
		return err
	}
	rc.set("serve.stack_tcp_us", 1000*plain.p50()-floor, plain.minWindow())
	if err := traceWire(rc, 3, sh.dim); err != nil {
		return err
	}
	traceHost(rc)
	return nil
}

// traceEngine times the in-process inference engine on fixture F: the
// compute floor under every serving answer. It returns the floor of
// the workload's own request mix in microseconds.
func traceEngine(rc *runCtx, sp *serveSpec, fx *fixtures, sh shape) (float64, error) {
	ds, err := fixtureDataset()
	if err != nil {
		return 0, err
	}
	r := newPRNG(rc.seed, 0xE791)
	ids := make([][]int, 256)
	for i := range ids {
		ids[i] = []int{r.intn(sh.vertices), r.intn(sh.vertices)} // 2 ids: the mean of the 1-3 mix
	}
	// The engine memoizes top-K answers, so every top-K call asks a
	// vertex no earlier call asked: a seeded shuffle, consumed in order.
	fresh := make([]int, sh.vertices)
	for i := range fresh {
		fresh[i] = i
	}
	for i := len(fresh) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		fresh[i], fresh[j] = fresh[j], fresh[i]
	}
	// perCall times fn over 256 calls a pass and returns us per call.
	perCall := func(name string, fn func(i int) error) (float64, error) {
		var ferr error
		d := timeCalls(rc.tr, name, 5, func() {
			for i := range ids {
				if err := fn(i); err != nil {
					ferr = err
				}
			}
		})
		return us(d) / float64(len(ids)), ferr
	}
	// topK times one engine's top-K in one mode on fresh vertices.
	topK := func(name string, e *gsgcn.InferenceEngine, mode string) (float64, error) {
		return perCall(name, func(int) error {
			if len(fresh) == 0 {
				return errors.New("ran out of unasked vertices")
			}
			id := fresh[0]
			fresh = fresh[1:]
			_, err := e.TopKWith(id, 10, mode, 0)
			return err
		})
	}

	eng := gsgcn.NewInferenceEngine(ds, gsgcn.ServeOptions{})
	if _, err := eng.LoadCheckpoint(fx.ckpt); err != nil {
		return 0, err
	}
	embed, err := perCall("engine.Embed x256", func(i int) error { _, err := eng.Embed(ids[i]); return err })
	if err != nil {
		return 0, err
	}
	predict, err := perCall("engine.Predict x256", func(i int) error { _, err := eng.Predict(ids[i]); return err })
	if err != nil {
		return 0, err
	}
	exact, err := topK("engine.TopK exact x256", eng, "exact")
	if err != nil {
		return 0, err
	}
	rc.set("serve.engine_embed_us", embed, len(ids))
	rc.set("serve.engine_predict_us", predict, len(ids))
	rc.set("serve.engine_topk_exact_us", exact, len(ids))
	mix := func(topk float64) float64 {
		return (float64(sp.embedW)*embed + float64(sp.predictW)*predict + float64(sp.topkW)*topk) /
			float64(sp.embedW+sp.predictW+sp.topkW)
	}
	if sp.topkMode != "ann" {
		return mix(exact), nil
	}

	// ann over the full-precision and the quantized table, each warm
	// from an unsharded artifact that carries its index.
	annUS := map[string]float64{}
	for _, dtype := range []string{"f64", "i8pq"} {
		art := filepath.Join(filepath.Dir(fx.ckpt), fixtureStamp+".1shard."+dtype+".art")
		if _, err := fx.index(rc, art, "-dtype", dtype); err != nil {
			return 0, err
		}
		dt, err := gsgcn.ParseServingDtype(dtype)
		if err != nil {
			return 0, err
		}
		ae := gsgcn.NewInferenceEngine(ds, gsgcn.ServeOptions{ANN: true, Dtype: dt, ArtifactPath: art})
		if _, err := ae.LoadCheckpoint(fx.ckpt); err != nil {
			return 0, err
		}
		st, err := ae.Snapshot()
		if err != nil {
			return 0, err
		}
		rc.check(st.WarmStart, "ann engine (%s) did not warm-start from %s: %s", dtype, art, st.WarmNote)
		annUS[dtype], err = topK("engine.TopK ann "+dtype+" x256", ae, "ann")
		if err != nil {
			return 0, err
		}
	}
	rc.set("serve.engine_topk_ann_f64_us", annUS["f64"], len(ids))
	rc.set("serve.engine_topk_ann_i8pq_us", annUS["i8pq"], len(ids))
	return mix(annUS[fleetDtype]), nil
}
