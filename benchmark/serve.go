package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"gsgcn/pkg/client"
)

// serveSpec is one serving workload.
type serveSpec struct {
	fleet bool
	// depth is how many requests each tcp connection keeps in flight in
	// the primary phase (the generators of one connection pipeline).
	depth int
	// A load window is `slices` bursts of load of `slice` each with a
	// reference reading between them: bursts short enough that the
	// readings follow the host's speed through the window, windows long
	// enough for a few hundred answers and a percentile.
	slice  time.Duration
	slices int
	// tailPct is the tail percentile reported beside p50: the highest
	// that leaves about ten samples beyond it in every window.
	tailPct float64
	// The request mix: weights of embed, predict and top-K requests,
	// and how top-K is asked. coldTopK draws the top-K requests from
	// one permutation of (id, k) pairs that never repeats in a run.
	embedW, predictW, topkW int
	topkMode                string
	coldTopK                bool
	// reloads posts one hot /reload in the middle of every window of
	// the primary phase, so that every window holds the same work.
	reloads bool
	// Extra phases of the traced run: wire and json at nproc
	// connections; the Zipf memo-hit phase.
	httpPhases, hotPhase bool

	cold *coldTopK // set by runServe when coldTopK
}

func runServePoint(rc *runCtx) error {
	return runServe(rc, &serveSpec{depth: 8, slice: 50 * time.Millisecond, slices: 6, tailPct: 99, embedW: 2, predictW: 1, httpPhases: true})
}

func runServeTopK(rc *runCtx) error {
	return runServe(rc, &serveSpec{depth: 1, slice: 100 * time.Millisecond, slices: 5, tailPct: 95, topkW: 1, topkMode: "exact", coldTopK: true, hotPhase: true})
}

func (sp *serveSpec) window() time.Duration { return time.Duration(sp.slices) * sp.slice }

func runServeFleet(rc *runCtx) error {
	return runServe(rc, &serveSpec{fleet: true, depth: 4, slice: 100 * time.Millisecond, slices: 10, tailPct: 99, reloads: true,
		embedW: 2, predictW: 1, topkW: 1, topkMode: "ann"})
}

// failure classes, in the order the report lists them.
const (
	failShed        = "shed"
	failUnavailable = "unavailable"
	failDeadline    = "deadline"
	failClient      = "client_error"
	failServer      = "server_error"
	failTransport   = "transport"
	failWrong       = "wrong_answer"
)

// classify names the failure class of a request error.
func classify(err error) string {
	var api *client.APIError
	if errors.As(err, &api) {
		switch {
		case api.Status == http.StatusTooManyRequests:
			return failShed
		case api.Status == http.StatusServiceUnavailable:
			return failUnavailable
		case api.Status == http.StatusGatewayTimeout || api.Reason == "deadline":
			return failDeadline
		case api.Status >= 400 && api.Status < 500:
			return failClient
		default:
			return failServer
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return failDeadline
	}
	return failTransport
}

// shape is what every answer of a server must look like.
type shape struct{ vertices, dim, classes int }

// do sends one request and checks the answer's shape. digest, when
// non-nil, receives a hash of every id and float bit of the answer.
func do(ctx context.Context, c client.Client, o op, sh shape, digest *uint64) error {
	// Only the cross-transport probe wants the digest; the load phases
	// must not pay for hashing every float of every answer.
	var h hash.Hash64
	if digest != nil {
		h = fnv.New64a()
	}
	var b [8]byte
	put := func(u uint64) {
		if h == nil {
			return
		}
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	switch o.kind {
	case opEmbed:
		r, err := c.Embed(ctx, o.ids)
		if err != nil {
			return err
		}
		if r.Dim != sh.dim || len(r.Vectors) != len(o.ids) || !equalInts(r.IDs, o.ids) {
			return wrongf("embed %v: got dim %d, %d rows, ids %v; want dim %d, %d rows", o.ids, r.Dim, len(r.Vectors), r.IDs, sh.dim, len(o.ids))
		}
		for _, v := range r.Vectors {
			if len(v) != sh.dim {
				return wrongf("embed %v: a row has %d columns, want %d", o.ids, len(v), sh.dim)
			}
			for _, x := range v {
				put(math.Float64bits(x))
			}
		}
	case opPredict:
		r, err := c.Predict(ctx, o.ids)
		if err != nil {
			return err
		}
		if r.Classes != sh.classes || len(r.Labels) != len(o.ids) || len(r.Probs) != len(o.ids) || !equalInts(r.IDs, o.ids) {
			return wrongf("predict %v: got %d classes, %d label rows, %d prob rows", o.ids, r.Classes, len(r.Labels), len(r.Probs))
		}
		for i, p := range r.Probs {
			if len(p) != sh.classes {
				return wrongf("predict %v: a row has %d probabilities, want %d", o.ids, len(p), sh.classes)
			}
			for _, x := range p {
				put(math.Float64bits(x))
			}
			for _, l := range r.Labels[i] {
				put(uint64(l))
			}
		}
	case opTopK:
		r, err := c.TopK(ctx, client.TopKQuery{ID: o.id, K: o.k, Mode: o.mode})
		if err != nil {
			return err
		}
		if r.ID != o.id || len(r.Neighbors) != o.k {
			return wrongf("topk id=%d k=%d: got id %d with %d neighbours", o.id, o.k, r.ID, len(r.Neighbors))
		}
		seen := make(map[int]bool, o.k)
		for i, nb := range r.Neighbors {
			if nb.ID == o.id || seen[nb.ID] || nb.ID < 0 || nb.ID >= sh.vertices {
				return wrongf("topk id=%d k=%d: neighbour %d (id %d) is self, repeated or out of range", o.id, o.k, i, nb.ID)
			}
			if i > 0 && nb.Score > r.Neighbors[i-1].Score {
				return wrongf("topk id=%d k=%d: scores rise at position %d", o.id, o.k, i)
			}
			seen[nb.ID] = true
			put(uint64(nb.ID))
			put(math.Float64bits(nb.Score))
		}
	}
	if digest != nil {
		*digest = h.Sum64()
	}
	return nil
}

// wrongAnswer marks an answer that arrived but has the wrong shape.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return w.msg }

func wrongf(format string, args ...any) error { return &wrongAnswer{fmt.Sprintf(format, args...)} }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dial opens one client on its own connection.
func dial(s *server, transport string) (client.Client, error) {
	cfg := client.Config{Transport: transport, Addr: s.httpAddr, Timeout: 30 * time.Second}
	if transport == "tcp" {
		cfg.Addr = s.tcpAddr
	} else {
		cfg.HTTPClient = &http.Client{Timeout: cfg.Timeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return client.New(cfg)
}

// phase is one closed-loop load phase: conns connections, depth
// generator goroutines per connection each waiting for its reply
// before sending the next request. warm of load is discarded, then
// `windows` load windows are measured, each `slices` bursts of `slice`.
// Between two bursts the generators stop, the requests in flight
// drain, and the reference kernel is read on the then idle host (see
// calib.go); a pause lasts a few milliseconds.
type phase struct {
	name      string
	transport string
	conns     int
	depth     int
	warm      time.Duration
	slice     time.Duration
	slices    int
	windows   int
	tailPct   float64
	gens      []opGen // conns*depth of them
	reloads   bool    // one hot /reload in the middle of every window
	tr        *tracer // spans around every request when non-nil
}

// phaseResult is what one phase measured.
type phaseResult struct {
	wins []windowStats
	// ok counts the ok answers of all windows, drained ones included;
	// srvCPU and selfCPU are the server's and this process's CPU time
	// over the same windows.
	ok       int64
	srvCPU   cpuTimes
	selfCPU  cpuTimes
	reloadMS []float64 // duration of each hot reload
}

func (r *phaseResult) medianOf(f func(windowStats) float64) float64 { return medianOver(r.wins, f) }

// qps, p50 and tail are as measured: the median over windows.
func (r *phaseResult) qps() float64 {
	return r.medianOf(func(w windowStats) float64 { return w.qps })
}
func (r *phaseResult) p50() float64 {
	return r.medianOf(func(w windowStats) float64 { return w.p50 })
}
func (r *phaseResult) tail() float64 {
	return r.medianOf(func(w windowStats) float64 { return w.tail })
}

// qpsNominal and cpuMSPerOpNominal are the gated numbers: the median
// over windows of the window's answer rate, and of the server's CPU
// time per ok answer, on the nominal host.
func (r *phaseResult) qpsNominal() float64 {
	return r.medianOf(func(w windowStats) float64 { return w.qps / normalise(1, w.ref) })
}
func (r *phaseResult) cpuMSPerOpNominal() float64 {
	return r.medianOf(func(w windowStats) float64 {
		return normalise(ms(w.srvCPU.total())/float64(w.okAll), w.ref)
	})
}
func (r *phaseResult) refMedian() time.Duration {
	return time.Duration(r.medianOf(func(w windowStats) float64 { return float64(w.ref) }))
}
func (r *phaseResult) minWindow() int {
	n := r.wins[0].n
	for _, w := range r.wins {
		if w.n < n {
			n = w.n
		}
	}
	return n
}

// split sizes a phase to fill d: a tenth (at most 0.5 s) of warm-up,
// the rest in whole windows, at least three. The reference readings
// between bursts come on top.
func split(d, window time.Duration) (warm time.Duration, windows int) {
	warm = d / 10
	if warm > 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	windows = int((d - warm) / window)
	if windows < 3 {
		windows = 3
	}
	return warm, windows
}

// genState is what one generator goroutine carries from window to
// window.
type genState struct {
	samples   []sample // of the current burst
	attempted int64
	failedBy  map[string]int64
	wrong     []string
}

func runPhase(rc *runCtx, s *server, sh shape, p phase) (*phaseResult, error) {
	clients := make([]client.Client, p.conns)
	for i := range clients {
		c, err := dial(s, p.transport)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", p.name, err)
		}
		defer c.Close()
		clients[i] = c
	}
	states := make([]genState, len(p.gens))
	for g := range states {
		states[g].failedBy = map[string]int64{}
	}
	res := &phaseResult{}
	var reloadFailed int64
	pid := p.tr.begin("phase."+p.name, 0)

	// load runs every generator for d and returns when the last request
	// in flight has been answered.
	load := func(d time.Duration, reload bool) {
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(d)
		for g := range p.gens {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				st := &states[g]
				st.samples = st.samples[:0]
				c, gen := clients[g%p.conns], p.gens[g]
				for time.Now().Before(deadline) && rc.ctx.Err() == nil {
					o := gen.next()
					sid := p.tr.begin("client."+p.transport, pid)
					t0 := time.Now()
					err := do(rc.ctx, c, o, sh, nil)
					end := time.Now()
					p.tr.end(sid)
					st.attempted++
					if err != nil {
						var w *wrongAnswer
						if errors.As(err, &w) {
							st.failedBy[failWrong]++
							if len(st.wrong) < 3 {
								st.wrong = append(st.wrong, w.msg)
							}
						} else {
							st.failedBy[classify(err)]++
						}
						continue
					}
					st.samples = append(st.samples, sample{end: end.Sub(start), lat: end.Sub(t0)})
				}
			}(g)
		}
		if reload {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(d / 2)
				id := p.tr.begin("ops.Reload", pid)
				r0 := time.Now()
				err := client.NewOps(s.httpAddr, "", nil).Reload(rc.ctx)
				p.tr.end(id)
				if err != nil {
					reloadFailed++
					return
				}
				res.reloadMS = append(res.reloadMS, ms(time.Since(r0)))
			}()
		}
		wg.Wait()
	}

	load(p.warm, false)
	ref := newRefKernel()
	last := ref.read()
	var all []sample
	for w := 0; w < p.windows && rc.ctx.Err() == nil; w++ {
		srv0, err := procCPU(s.pid())
		if err != nil {
			return nil, fmt.Errorf("phase %s: reading server CPU: %w", p.name, err)
		}
		all = all[:0]
		refSum := last
		for i := 0; i < p.slices; i++ {
			self0 := selfCPU()
			load(p.slice, p.reloads && i == p.slices/2)
			res.selfCPU = res.selfCPU.add(selfCPU().sub(self0))
			for g := range states {
				all = append(all, states[g].samples...)
			}
			last = ref.read()
			refSum += last
		}
		srv1, err := procCPU(s.pid())
		if err != nil {
			return nil, fmt.Errorf("phase %s: reading server CPU: %w", p.name, err)
		}
		rss, err := procRSSMB(s.pid())
		if err != nil {
			return nil, fmt.Errorf("phase %s: reading server RSS: %w", p.name, err)
		}
		ws := summariseWindow(all, p.slice, p.slices, p.tailPct)
		ws.srvCPU, ws.srvRSS, ws.ref = srv1.sub(srv0), rss, refSum/time.Duration(p.slices+1)
		if ws.okAll == 0 {
			return nil, fmt.Errorf("phase %s: no request succeeded in window %d", p.name, w)
		}
		res.wins = append(res.wins, ws)
		res.ok += int64(ws.okAll)
		res.srvCPU = res.srvCPU.add(ws.srvCPU)
	}
	p.tr.end(pid)
	if err := rc.ctx.Err(); err != nil {
		return nil, err
	}
	attempted := int64(len(res.reloadMS)) + reloadFailed
	failedBy := map[string]int64{"reload": reloadFailed}
	for g := range states {
		st := &states[g]
		attempted += st.attempted
		for class, n := range st.failedBy {
			failedBy[class] += n
		}
		for _, w := range st.wrong {
			rc.check(false, "phase %s: %s", p.name, w)
		}
	}
	rc.ops(attempted, failedBy)
	return res, nil
}

// gens builds n request sources with stream ids base, base+1, ...
func (sp *serveSpec) gens(rc *runCtx, base uint64, n, vertices int) []opGen {
	out := make([]opGen, n)
	for i := range out {
		if sp.coldTopK {
			out[i] = sp.cold
		} else {
			out[i] = newPointGen(rc.seed, base+uint64(i), vertices, sp.embedW, sp.predictW, sp.topkW, sp.topkMode)
		}
	}
	return out
}

// healthStats is the part of /healthz the benchmark reads beyond
// client.Health.
type healthStats struct {
	Status    string `json:"status"`
	Batches   uint64 `json:"batches"`
	Queries   uint64 `json:"queries"`
	ResidentB int64  `json:"resident_bytes"`
	MappedB   int64  `json:"mapped_bytes"`
	WarmStart bool   `json:"warm_start"`
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return raw, nil
}

func readHealthStats(ctx context.Context, s *server) (healthStats, error) {
	var h healthStats
	raw, err := httpGet(ctx, s.httpAddr+"/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(raw, &h)
}

// startMeasured performs the serving set-up as often as rc.moreSetups
// says and keeps the last server running. Every earlier one is stopped
// before the next starts. It returns the ready times as measured and
// on the nominal host.
func startMeasured(rc *runCtx, fx *fixtures, fleet bool) (srv *server, setups, setupsN []float64, err error) {
	id := rc.tr.begin("setup", 0)
	defer rc.tr.end(id)
	ref := newRefKernel()
	before := ref.read()
	for began := time.Now(); rc.moreSetups(len(setups), began); {
		if srv != nil {
			srv.stop()
			before = ref.read()
		}
		if srv, err = startServer(rc.ctx, fx.serveBin, fx.serveArgs(fleet), rc.runDir); err != nil {
			return nil, nil, nil, err
		}
		after := ref.read()
		setups = append(setups, srv.ready.Seconds())
		setupsN = append(setupsN, normalise(srv.ready.Seconds(), meanDuration(before, after)))
	}
	return srv, setups, setupsN, nil
}

func runServe(rc *runCtx, sp *serveSpec) error {
	fx, err := prepareFixtures(rc, sp.fleet)
	if err != nil {
		return err
	}
	srv, setups, setupsN, err := startMeasured(rc, fx, sp.fleet)
	if err != nil {
		return err
	}
	defer srv.stop()
	h := srv.health
	sh := shape{vertices: h.Vertices, dim: h.Dim, classes: h.Classes}
	rc.check(sh.dim == 2*fixHidden, "server reports embedding dim %d, fixture F has %d", sh.dim, 2*fixHidden)
	total := time.Duration(rc.seconds * float64(time.Second))
	if sp.coldTopK {
		sp.cold = newColdTopK(rc.seed, sh.vertices)
	}

	if rc.traced() {
		if err := traceServe(rc, sp, fx, srv, sh, setups, total); err != nil {
			return err
		}
	} else {
		// Every core's worth of pipelined tcp connections.
		warm, windows := split(total, sp.window())
		primary := phase{name: "primary", transport: "tcp", conns: rc.nproc, depth: sp.depth,
			warm: warm, slice: sp.slice, slices: sp.slices, windows: windows, tailPct: sp.tailPct,
			gens: sp.gens(rc, 0, rc.nproc*sp.depth, sh.vertices), reloads: sp.reloads}
		pr, err := runPhase(rc, srv, sh, primary)
		if err != nil {
			return err
		}
		rc.set("setup_s", median(setupsN), len(setupsN))
		rc.set("ops_per_s", pr.qpsNominal(), len(pr.wins))
		rc.set("cpu_ms_per_op", pr.cpuMSPerOpNominal(), len(pr.wins))
		rc.set("rss_mb", pr.medianOf(func(w windowStats) float64 { return w.srvRSS }), len(pr.wins))
		rc.note("tcp, %d connections x %d in flight, %d windows of %d bursts of %.2f s, at least %d ok answers per window",
			rc.nproc, sp.depth, len(pr.wins), sp.slices, sp.slice.Seconds(), pr.minWindow())
		rc.note("as measured, before normalising: ready in %.3f s, %.0f answers/s, %.4f ms of server CPU per answer, p50 %.3f ms, p%g %.3f ms; reference kernel %.0f us (median over windows; nominal %d us)",
			median(setups), pr.qps(), ms(pr.srvCPU.total())/float64(pr.ok), pr.p50(), sp.tailPct, pr.tail(),
			us(pr.refMedian()), refNominal/time.Microsecond)
		if sp.reloads {
			rc.note("%d hot reloads beside the reads, one per window, median %.1f ms", len(pr.reloadMS), median(pr.reloadMS))
		}
	}

	if err := probeTransports(rc, srv, sp, sh); err != nil {
		return err
	}
	if sp.fleet {
		recall, err := probeRecall(rc, srv, sh)
		if err != nil {
			return err
		}
		rc.check(recall >= 0.90, "recall@10 of ann against exact is %.4f, want at least 0.90", recall)
		if rc.traced() {
			rc.set("serve.recall_at_10", recall, recallProbes)
		}
		rc.note("recall@10 %.4f over %d seeded ids (ann vs mode=exact on the same server)", recall, recallProbes)
	}
	if sp.coldTopK {
		used, pairs := sp.cold.used()
		rc.check(used <= int64(pairs), "the (id,k) permutation wrapped: %d queries for %d pairs, so some repeated", used, pairs)
		rc.note("%d of %d distinct (id,k) pairs used", used, pairs)
	}
	// A server that is still alive and answering after the load is
	// part of correct; then it must go away completely.
	st, err := readHealthStats(rc.ctx, srv)
	if err != nil {
		return err
	}
	rc.check(st.Status == "ok", "server status after the run is %q", st.Status)
	if sp.fleet {
		rc.check(st.WarmStart && st.MappedB > 0, "the fleet did not warm-start from its mmap artifacts (warm_start %v, %d bytes mapped)", st.WarmStart, st.MappedB)
	}
	srv.stop()
	if _, err := httpGet(rc.ctx, srv.httpAddr+"/healthz"); err == nil {
		rc.check(false, "port of the stopped server still answers")
	}
	return nil
}

// probeQueries is the size of the cross-transport probe set.
const probeQueries = 64

// probeTransports sends the same 64 seeded queries over json, wire
// and tcp and requires every answer to be bit-identical across them.
func probeTransports(rc *runCtx, s *server, sp *serveSpec, sh shape) error {
	id := rc.tr.begin("probe.transports", 0)
	defer rc.tr.end(id)
	var queries []op
	point := newPointGen(rc.seed, 0x9809E, sh.vertices, 1, 1, 1, "exact")
	for len(queries) < probeQueries {
		queries = append(queries, point.next())
	}
	if sp.fleet { // ann is deterministic at a fixed shard count
		for i := 0; i < probeQueries/4; i++ {
			queries[i*4].mode = "ann"
		}
	}
	digests := map[string][]uint64{}
	for _, transport := range []string{"json", "wire", "tcp"} {
		c, err := dial(s, transport)
		if err != nil {
			return err
		}
		failed := map[string]int64{}
		for _, q := range queries {
			var d uint64
			if err := do(rc.ctx, c, q, sh, &d); err != nil {
				failed[classify(err)]++
				rc.check(false, "probe over %s: %v", transport, err)
			}
			digests[transport] = append(digests[transport], d)
		}
		c.Close()
		rc.ops(int64(len(queries)), failed)
	}
	for i := range queries {
		j, w, t := digests["json"][i], digests["wire"][i], digests["tcp"][i]
		if j != w || j != t {
			rc.check(false, "probe query %d (%+v) is not bit-identical across transports: json %x wire %x tcp %x", i, queries[i], j, w, t)
			break
		}
	}
	return nil
}

// recallProbes is the number of ids in the fleet's recall probe.
const recallProbes = 200

// probeRecall asks ann and exact top-10 for 200 seeded ids on the
// same server and returns the mean overlap.
func probeRecall(rc *runCtx, s *server, sh shape) (float64, error) {
	id := rc.tr.begin("probe.recall", 0)
	defer rc.tr.end(id)
	c, err := dial(s, "tcp")
	if err != nil {
		return 0, err
	}
	defer c.Close()
	r := newPRNG(rc.seed, 0x2ECA11)
	var hits, want int
	for i := 0; i < recallProbes; i++ {
		v := r.intn(sh.vertices)
		ann, err := c.TopK(rc.ctx, client.TopKQuery{ID: v, K: 10, Mode: "ann"})
		if err != nil {
			return 0, fmt.Errorf("recall probe: %w", err)
		}
		exact, err := c.TopK(rc.ctx, client.TopKQuery{ID: v, K: 10, Mode: "exact"})
		if err != nil {
			return 0, fmt.Errorf("recall probe: %w", err)
		}
		truth := map[int]bool{}
		for _, nb := range exact.Neighbors {
			truth[nb.ID] = true
		}
		for _, nb := range ann.Neighbors {
			if truth[nb.ID] {
				hits++
			}
		}
		want += len(exact.Neighbors)
	}
	rc.ops(2*recallProbes, nil)
	return float64(hits) / float64(want), nil
}

// scrapeLatency sums the server's own request-duration histogram over
// the query endpoints: total seconds and request count so far.
func scrapeLatency(ctx context.Context, s *server) (sum float64, count float64, err error) {
	raw, err := httpGet(ctx, s.httpAddr+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	return parseLatencyMetrics(string(raw))
}

func parseLatencyMetrics(text string) (sum, count float64, err error) {
	const family = "gsgcn_http_request_duration_seconds_"
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok {
			continue
		}
		query := false
		for _, ep := range []string{"/embed", "/predict", "/topk"} {
			query = query || strings.Contains(rest, `endpoint="`+ep+`"`)
		}
		if !query {
			continue
		}
		name, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		switch {
		case strings.HasPrefix(name, "sum{"):
			sum += v
		case strings.HasPrefix(name, "count{"):
			count += v
		}
	}
	return sum, count, nil
}
