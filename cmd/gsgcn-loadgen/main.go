// Command gsgcn-loadgen replays an open-loop mixed workload against a
// running gsgcn-serve process and reports latency percentiles,
// throughput and error classes. Open-loop means arrivals are paced by
// -rate alone — a slow server does not slow the generator down, so
// queueing and shedding behavior show up in the numbers instead of
// being hidden by back-pressure on the client.
//
// Requests are issued through pkg/client, so the generator exercises
// exactly the SDK code paths, over any of the three transports
// (-transport): "json" (HTTP), "wire" (HTTP negotiated to the binary
// encoding) or "tcp" (the persistent framed transport on -wire-addr).
//
// The mix interleaves embed, predict and topk queries (weights from
// -mix) across one or more models (-models, empty = the default
// model), and can stir in the two operational events a production
// fleet sees under load: periodic hot reloads (-reload-every) and
// shard kill/restart cycles (-churn-shard/-churn-every). The
// vertex-id space is discovered from the health endpoint.
//
// Results go to stderr as a human-readable summary, one line per
// error class that occurred (`make serve-smoke` reads the ok and
// unavailable lines for its availability assertion):
//
//	gsgcn-loadgen -addr http://127.0.0.1:8080 -rate 200 -duration 5s
//
// It is a smoke and exploration tool, not the measurement plane: an
// open loop on a shared host measures the host's timers as much as
// the server, so performance claims come from `go run ./benchmark`.
//
// Error classes: ok (200), then the server error table's classes
// (serve.FailureClass) — shed (429), unavailable (503, includes
// requests owned by a killed shard — expected during churn), deadline
// (504), client_error (other 4xx), server_error (other 5xx) — and
// transport (the request never completed). -fail-on-errors exits
// nonzero when any client_error, server_error or transport occurred,
// or when nothing succeeded at all — shed and unavailable are the
// overload-protection layer doing its job, not failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsgcn/internal/serve"
	"gsgcn/pkg/client"
)

// class buckets every request outcome; see the package comment for
// the HTTP-status mapping.
type class int

const (
	clsOK class = iota
	clsShed
	clsUnavailable
	clsDeadline
	clsClient
	clsServer
	clsTransport
	numClasses
)

var classNames = [numClasses]string{
	"ok", "shed", "unavailable", "deadline",
	"client_error", "server_error", "transport",
}

// classify buckets one SDK outcome. Server rejections arrive as
// *client.APIError carrying the HTTP status and reason on every
// transport, and serve.FailureClass names their class from the
// server's own error table, so the classification is
// transport-independent; anything else that failed is a transport
// error.
func classify(err error) class {
	var ae *client.APIError
	switch {
	case err == nil:
		return clsOK
	case !errors.As(err, &ae):
		return clsTransport
	}
	name := serve.FailureClass(ae.Status, ae.Reason)
	for cl := clsShed; cl < clsTransport; cl++ {
		if classNames[cl] == name {
			return cl
		}
	}
	return clsServer
}

// collector accumulates outcomes from the request goroutines. Only
// successful answers contribute latency samples: a shed request's
// sub-millisecond 429 would otherwise drag the percentiles down and
// make an overloaded run look fast.
type collector struct {
	mu    sync.Mutex
	lat   []time.Duration
	count [numClasses]int
}

func (c *collector) record(cl class, d time.Duration) {
	c.mu.Lock()
	c.count[cl]++
	if cl == clsOK {
		c.lat = append(c.lat, d)
	}
	c.mu.Unlock()
}

// percentile returns the pth percentile (0 < p <= 100) of the sorted
// sample by nearest-rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// parseMix parses "embed:predict:topk" integer weights.
func parseMix(s string) ([3]int, error) {
	var mix [3]int
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return mix, fmt.Errorf("-mix %q: want embed:predict:topk weights", s)
	}
	total := 0
	for i, p := range parts {
		w, err := strconv.Atoi(p)
		if err != nil || w < 0 {
			return mix, fmt.Errorf("-mix %q: bad weight %q", s, p)
		}
		mix[i] = w
		total += w
	}
	if total == 0 {
		return mix, fmt.Errorf("-mix %q: all weights are zero", s)
	}
	return mix, nil
}

// config is the parsed flag set; run is pure with respect to it.
type config struct {
	addr        string // HTTP base URL (queries on json/wire, control plane always)
	wireAddr    string // host:port of the framed TCP listener (tcp transport)
	transport   string // json | wire | tcp
	rate        float64
	duration    time.Duration
	timeout     time.Duration
	mix         [3]int
	models      []string // model names; "" targets the default model
	seed        int64
	reloadEvery time.Duration
	churnShard  int // -1 = off
	churnEvery  time.Duration
}

// summary is one run's aggregate outcome.
type summary struct {
	elapsed        time.Duration
	p50, p99, p999 time.Duration
	qps            float64 // successful answers per second
	count          [numClasses]int
}

// hardFailures counts the outcomes -fail-on-errors treats as bugs:
// everything except answers, sheds and degraded 503s.
func (s summary) hardFailures() int {
	return s.count[clsClient] + s.count[clsServer] + s.count[clsTransport]
}

// run generates the load and collects the summary. The arrival clock
// is open-loop: one request per tick, each on its own goroutine, so a
// slow server piles up concurrency instead of slowing the clock. The
// rng is only touched on the ticker goroutine — every query is fully
// decided (model, op, ids) before it is handed to a worker — keeping
// the workload sequence deterministic for a fixed seed regardless of
// response timing or transport.
func run(cfg config) (summary, error) {
	ctx := context.Background()
	queryAddr := cfg.addr
	if cfg.transport == "tcp" {
		if cfg.wireAddr == "" {
			return summary{}, fmt.Errorf("-transport tcp needs -wire-addr")
		}
		queryAddr = cfg.wireAddr
	}
	clients := make([]client.Client, len(cfg.models))
	ops := make([]*client.Ops, len(cfg.models))
	vertices := make([]int, len(cfg.models))
	opsHTTP := &http.Client{Timeout: cfg.timeout}
	for i, m := range cfg.models {
		c, err := client.New(client.Config{
			Transport: cfg.transport, Addr: queryAddr, Model: m, Timeout: cfg.timeout,
		})
		if err != nil {
			return summary{}, err
		}
		defer c.Close()
		clients[i] = c
		ops[i] = client.NewOps(cfg.addr, m, opsHTTP)
		h, err := ops[i].Health(ctx)
		if err != nil {
			return summary{}, fmt.Errorf("model %q: %w", m, err)
		}
		if h.Vertices < 2 {
			return summary{}, fmt.Errorf("model %q serves %d vertices; need at least 2", m, h.Vertices)
		}
		vertices[i] = h.Vertices
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	col := &collector{}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	if cfg.reloadEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.reloadEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					for _, o := range ops {
						o.Reload(ctx)
					}
				}
			}
		}()
	}
	if cfg.churnShard >= 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.churnEvery)
			defer t.Stop()
			stopNext := true
			for {
				select {
				case <-stop:
					// Leave the fleet healthy however the cycle ended.
					for _, o := range ops {
						o.StartShard(ctx, cfg.churnShard)
					}
					return
				case <-t.C:
					for _, o := range ops {
						if stopNext {
							o.StopShard(ctx, cfg.churnShard)
						} else {
							o.StartShard(ctx, cfg.churnShard)
						}
					}
					stopNext = !stopNext
				}
			}
		}()
	}

	interval := time.Duration(float64(time.Second) / cfg.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	start := time.Now()
	tick := time.NewTicker(interval)
	for time.Since(start) < cfg.duration {
		<-tick.C
		mi := rng.Intn(len(cfg.models))
		c, total := clients[mi], vertices[mi]
		w := rng.Intn(cfg.mix[0] + cfg.mix[1] + cfg.mix[2])
		var query func() error
		switch {
		case w < cfg.mix[0]:
			ids := make([]int, 1+rng.Intn(3))
			for i := range ids {
				ids[i] = rng.Intn(total)
			}
			query = func() error { _, err := c.Embed(ctx, ids); return err }
		case w < cfg.mix[0]+cfg.mix[1]:
			ids := []int{rng.Intn(total)}
			query = func() error { _, err := c.Predict(ctx, ids); return err }
		default:
			k := 1 + rng.Intn(5)
			if k > total-1 {
				k = total - 1
			}
			q := client.TopKQuery{ID: rng.Intn(total), K: k}
			query = func() error { _, err := c.TopK(ctx, q); return err }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			err := query()
			col.record(classify(err), time.Since(t0))
		}()
	}
	tick.Stop()
	close(stop)
	wg.Wait()

	col.mu.Lock()
	lat, count := col.lat, col.count
	col.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s := summary{
		elapsed: time.Since(start),
		p50:     percentile(lat, 50),
		p99:     percentile(lat, 99),
		p999:    percentile(lat, 99.9),
		count:   count,
	}
	s.qps = float64(count[clsOK]) / s.elapsed.Seconds()
	return s, nil
}

// report writes the human-readable summary.
func report(w io.Writer, cfg config, s summary) {
	fmt.Fprintf(w, "gsgcn-loadgen: %v at %.0f req/s over %d model(s), transport %s\n",
		s.elapsed.Round(time.Millisecond), cfg.rate, len(cfg.models), cfg.transport)
	fmt.Fprintf(w, "  latency p50=%v p99=%v p999=%v (ok answers only)\n", s.p50, s.p99, s.p999)
	fmt.Fprintf(w, "  throughput %.1f ok/s\n", s.qps)
	for cl := clsOK; cl < numClasses; cl++ {
		if s.count[cl] > 0 {
			fmt.Fprintf(w, "  %-12s %d\n", classNames[cl], s.count[cl])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsgcn-loadgen:", err)
	os.Exit(1)
}

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "base URL of the gsgcn-serve process")
		wireAddr  = flag.String("wire-addr", "", "host:port of the server's framed TCP listener (required by -transport tcp)")
		transport = flag.String("transport", "json", "query transport: json, wire (negotiated binary over HTTP) or tcp (persistent framed connection)")
		rate      = flag.Float64("rate", 100, "open-loop arrival rate in requests/sec")
		duration  = flag.Duration("duration", 10*time.Second, "how long to generate load")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request client timeout (counts as transport on expiry)")
		mixFlag   = flag.String("mix", "2:1:1", "embed:predict:topk weights")
		models    = flag.String("models", "", "comma-separated model names to spread load over (empty = the default model)")
		seed      = flag.Int64("seed", 1, "workload RNG seed (id choices and endpoint mix)")
		reload    = flag.Duration("reload-every", 0, "hot-reload every model at this interval mid-traffic (0 = off)")
		churn     = flag.Int("churn-shard", -1, "shard index to repeatedly stop and restart mid-traffic (-1 = off)")
		churnDur  = flag.Duration("churn-every", time.Second, "interval between shard stop/start flips when -churn-shard is set")
		failErrs  = flag.Bool("fail-on-errors", false, "exit 1 when any client_error/server_error/transport occurred, or nothing succeeded")
	)
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	names := []string{""}
	if *models != "" {
		names = strings.Split(*models, ",")
	}
	cfg := config{
		addr: *addr, wireAddr: *wireAddr, transport: *transport,
		rate: *rate, duration: *duration, timeout: *timeout,
		mix: mix, models: names, seed: *seed,
		reloadEvery: *reload, churnShard: *churn, churnEvery: *churnDur,
	}
	s, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	report(os.Stderr, cfg, s)
	if *failErrs {
		if bad := s.hardFailures(); bad > 0 {
			fatal(fmt.Errorf("%d hard failures (client_error=%d server_error=%d transport=%d)",
				bad, s.count[clsClient], s.count[clsServer], s.count[clsTransport]))
		}
		if s.count[clsOK] == 0 {
			fatal(fmt.Errorf("no request succeeded"))
		}
	}
}
