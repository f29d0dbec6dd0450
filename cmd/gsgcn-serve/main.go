// Command gsgcn-serve answers online embedding, prediction and
// similar-node queries from trained graph-sampling GCN checkpoints.
// It serves one model (the PR 2–4 surface) or a fleet of independent
// models behind one process; see docs/API.md for the full HTTP
// reference and docs/ARCHITECTURE.md for how the pieces fit.
//
//	GET  /embed?ids=0,1,2       embedding vectors (default model)
//	GET  /predict?ids=0,1,2     class labels + probabilities
//	GET  /topk?id=7&k=10        most cosine-similar vertices
//	     &mode=exact|ann&ef=64    exact scan vs HNSW beam search
//	GET  /healthz               liveness + serving stats
//	POST /reload                hot-swap checkpoint (and artifact)
//	GET  /models                per-model status listing
//	*    /models/{name}/…       any endpoint above, per model
//	GET  /shards                per-shard status (sharded models)
//	POST /shards/{i}/stop       take one shard down (degraded, not dead)
//	POST /shards/{i}/start      bring it back, bit-exact
//
// With -shards N each model is served as N vertex shards behind a
// scatter-gather router: queries fan out to the owning shards and the
// merged exact answers are byte-identical to the unsharded server at
// every shard count. Per-shard warm-start artifacts come from
// gsgcn-index -shards (the -artifact flag then names the base path).
//
// SIGHUP hot-reloads every model's checkpoint file; in-flight
// requests finish against the snapshot they started with.
//
// Single model:
//
//	gsgcn-serve -data reddit.gsg -load model.ckpt -addr :8080
//	gsgcn-serve -dataset ppi -scale 0.05 -load model.ckpt
//
// Multiple models are described in a JSON config file (the first model
// is the default unless "default" or -default says otherwise); settings
// absent from a model's JSON object inherit the matching global flags:
//
//	gsgcn-serve -config fleet.json
//	{
//	  "default": "prod",
//	  "models": [
//	    {"name": "prod", "checkpoint": "prod.ckpt", "data": "g.gsg",
//	     "artifact": "prod.ckpt.art", "ann": true},
//	    {"name": "canary", "checkpoint": "canary.ckpt", "data": "g.gsg"}
//	  ]
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gsgcn"
	"gsgcn/internal/obs"
)

// logger emits every lifecycle event (startup, reload, shutdown) as a
// structured JSON line on stderr, and doubles as the access logger:
// request lines and lifecycle lines share one stream and one
// monotonic id space, so an operator can correlate them.
var logger = gsgcn.NewStructuredLogger(os.Stderr)

// modelSpec is one model's serving configuration — the JSON config
// schema.
type modelSpec struct {
	Name       string `json:"name"`
	Checkpoint string `json:"checkpoint"`
	// Data names a .gsg dataset file; empty uses the process-wide
	// dataset (-data / -dataset). Models naming the same path, the
	// -data path included, share one in-memory graph.
	Data string `json:"data"`
	// Artifact warm-starts this model ("auto" tries checkpoint+".art").
	// For a sharded model it is the artifact base path; shard i warms
	// from <base>.s<i>of<N> (gsgcn-index -shards output).
	Artifact string `json:"artifact"`
	// Dtype names the resident representation of the embedding table —
	// f64 (default), f32 or i8pq. Exact answers always read float64
	// rows; quantized tables only steer the ANN candidate scan.
	Dtype   string `json:"dtype"`
	ANN     bool   `json:"ann"`
	ANNM    int    `json:"ann_m"`
	ANNEf   int    `json:"ann_ef"`
	Workers int    `json:"workers"`
	// Shards > 1 serves the model as a sharded fleet behind a
	// scatter-gather router; ShardSeed keys the deterministic
	// vertex-shard assignment and must match the artifact build.
	Shards    int    `json:"shards"`
	ShardSeed uint64 `json:"shard_seed"`
	// DeadlineMS bounds each query's time from arrival, in milliseconds
	// (fractional for sub-millisecond bounds); expired queries answer
	// 504. 0 = no deadline.
	DeadlineMS float64 `json:"deadline_ms"`
	// ShedQueue is the high-water mark of the model's queries in flight
	// at which new queries are shed with 429. 0 = never shed.
	ShedQueue int `json:"shed_queue"`
	// QPS is this model's admission quota in queries/sec (token
	// bucket, one second of burst). 0 = unlimited.
	QPS float64 `json:"qps"`
}

// fleetConfig is the -config file schema.
type fleetConfig struct {
	Default string      `json:"default"`
	Models  []modelSpec `json:"models"`
}

// parseFleetConfig decodes and validates a -config document. Each
// model is decoded over a copy of the global-flag defaults, so
// settings absent from the JSON inherit the matching command-line
// flags. Unknown fields are rejected so a typoed setting fails loudly
// instead of silently serving defaults.
func parseFleetConfig(raw []byte, defaults modelSpec) (fleetConfig, error) {
	var doc struct {
		Default string            `json:"default"`
		Models  []json.RawMessage `json:"models"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fleetConfig{}, err
	}
	if len(doc.Models) == 0 {
		return fleetConfig{}, fmt.Errorf("config lists no models")
	}
	fc := fleetConfig{Default: doc.Default}
	for _, rm := range doc.Models {
		spec := defaults
		d := json.NewDecoder(strings.NewReader(string(rm)))
		d.DisallowUnknownFields()
		if err := d.Decode(&spec); err != nil {
			return fleetConfig{}, err
		}
		if spec.Name == "" || spec.Checkpoint == "" {
			return fleetConfig{}, fmt.Errorf("config model %s needs both name and checkpoint", rm)
		}
		fc.Models = append(fc.Models, spec)
	}
	return fc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsgcn-serve:", err)
	os.Exit(1)
}

func main() {
	var (
		load    = flag.String("load", "", "model checkpoint to serve (single-model mode)")
		config  = flag.String("config", "", "JSON fleet config file (see package docs); overrides -load")
		defName = flag.String("default", "", "model answering the unprefixed legacy routes (default: the first model)")
		data    = flag.String("data", "", "serving graph in .gsg format (overrides -dataset)")
		dataset = flag.String("dataset", "ppi", "preset to regenerate when -data is unset: ppi|reddit|yelp|amazon")
		scale   = flag.Float64("scale", 0.05, "preset scale relative to Table I")
		seed    = flag.Uint64("seed", 1, "preset generation seed (must match training)")
		addr    = flag.String("addr", ":8080", "listen address")
		wireAt  = flag.String("wire-addr", "", "also serve the persistent binary wire transport on this TCP address (e.g. :9001); off when empty — see docs/API.md for the framing")
		workers = flag.Int("workers", 0, "goroutines for embedding computation and top-K scans (0 = GOMAXPROCS)")
		annOn   = flag.Bool("ann", false, "answer /topk with the approximate HNSW index by default (per-request mode=exact|ann overrides)")
		annM    = flag.Int("ann-m", 0, "HNSW connectivity: links per vertex per layer, 2x on the base layer (0 = 16)")
		annEf   = flag.Int("ann-ef", 0, "default HNSW query beam width; higher = better recall, slower (0 = 64)")
		art     = flag.String("artifact", "", "snapshot artifact (gsgcn-index output) to warm-start from; \"auto\" tries <load>.art; mismatch or absence falls back to the full compute")
		dtype   = flag.String("dtype", "", "resident representation of the embedding table: f64|f32|i8pq (default f64; exact answers always read f64 rows)")
		shards  = flag.Int("shards", 0, "serve each model as N vertex shards behind a scatter-gather router (0 or 1 = unsharded)")
		shSeed  = flag.Uint64("shard-seed", 0, "seed keying the deterministic vertex-shard assignment (must match gsgcn-index -shard-seed)")
		dline   = flag.Duration("deadline", 0, "per-query deadline counted from arrival; work past it does not start and a late top-K answer is not sent, both 504 (0 = none)")
		shedQ   = flag.Int("shed-queue", 0, "high-water mark of a model's queries in flight; at it, new queries are shed with 429 (0 = never)")
		qps     = flag.Float64("qps", 0, "per-model admission quota in queries/sec, token bucket with one second of burst (0 = unlimited)")
		pprofAt = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (e.g. 127.0.0.1:6060); off when empty, and never on the serving listener")
		noLog   = flag.Bool("no-access-log", false, "disable the per-request JSON access log (lifecycle events still log)")
	)
	// -mmap is retired: an artifact is always mapped. The flag stays
	// registered, read by nothing, so existing command lines still parse.
	flag.Bool("mmap", false, "retired no-op: an artifact is always mapped")
	flag.Parse()

	// Global flags double as the per-model defaults.
	defaults := modelSpec{
		Artifact: *art, Dtype: *dtype,
		ANN: *annOn, ANNM: *annM, ANNEf: *annEf,
		Workers: *workers,
		Shards:  *shards, ShardSeed: *shSeed,
		DeadlineMS: float64(*dline) / float64(time.Millisecond), ShedQueue: *shedQ, QPS: *qps,
	}

	var specs []modelSpec
	wantDefault := *defName
	if *config != "" {
		raw, err := os.ReadFile(*config)
		if err != nil {
			fatal(err)
		}
		fc, err := parseFleetConfig(raw, defaults)
		if err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *config, err))
		}
		specs = fc.Models
		if wantDefault == "" {
			wantDefault = fc.Default
		}
	} else {
		if *load == "" {
			fmt.Fprintln(os.Stderr, "gsgcn-serve: -load or -config is required")
			os.Exit(2)
		}
		spec := defaults
		spec.Name, spec.Checkpoint = "default", *load
		specs = []modelSpec{spec}
	}

	// Datasets: the process-wide one (global flags) is loaded lazily;
	// per-model data files are read once per distinct path, and every
	// model naming a path serves that one *Dataset.
	dsCache := make(map[string]*gsgcn.Dataset)
	datasetFor := func(path string) (*gsgcn.Dataset, error) {
		if path == "" {
			// Normalize so an explicit data=g.gsg and the global -data
			// g.gsg hit the same cache entry ("" keys the preset case).
			path = *data
		}
		if ds, ok := dsCache[path]; ok {
			return ds, nil
		}
		var (
			ds  *gsgcn.Dataset
			err error
		)
		if path != "" {
			ds, err = gsgcn.ReadDataset(path)
		} else {
			ds, err = gsgcn.LoadPreset(*dataset, *scale, *seed)
		}
		if err != nil {
			return nil, err
		}
		logger.Event("dataset",
			gsgcn.Log("name", ds.Name),
			gsgcn.Log("vertices", ds.G.NumVertices()),
			gsgcn.Log("edges", ds.G.NumEdges()),
			gsgcn.Log("attrs", ds.FeatureDim()),
			gsgcn.Log("classes", ds.NumClasses))
		dsCache[path] = ds
		return ds, nil
	}

	reg := gsgcn.NewModelRegistry()
	defer reg.Close()
	obs.RegisterRuntime(reg.Metrics())
	if !*noLog {
		// Before the Add loop: models capture the access logger at
		// registration time.
		reg.SetAccessLog(logger)
	}
	for _, spec := range specs {
		if spec.Artifact == "auto" {
			spec.Artifact = spec.Checkpoint + ".art"
		}
		ds, err := datasetFor(spec.Data)
		if err != nil {
			fatal(err)
		}
		dt, err := gsgcn.ParseServingDtype(spec.Dtype)
		if err != nil {
			fatal(fmt.Errorf("model %q: %w", spec.Name, err))
		}
		opts := gsgcn.ServeOptions{
			Workers: spec.Workers,
			ANN:     spec.ANN, ANNM: spec.ANNM, ANNEf: spec.ANNEf,
			ArtifactPath: spec.Artifact, Dtype: dt,
			Deadline:    time.Duration(spec.DeadlineMS * float64(time.Millisecond)),
			ShedQueueHW: spec.ShedQueue,
			QPSLimit:    spec.QPS,
		}
		shards := spec.Shards
		if shards < 1 {
			shards = 1
		}
		srv, err := reg.AddSharded(spec.Name, ds, opts, shards, spec.ShardSeed)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if _, err := srv.Load(spec.Checkpoint); err != nil {
			fatal(fmt.Errorf("model %q: %w", spec.Name, err))
		}
		h := srv.Health() // fleet-wide: warm only when every shard warmed
		how := "computed"
		if h.WarmStart {
			how = "warm-started from " + spec.Artifact
		} else if h.WarmNote != "" {
			logger.Event("artifact_fallback",
				gsgcn.Log("model", spec.Name),
				gsgcn.Log("artifact", spec.Artifact),
				gsgcn.Log("reason", h.WarmNote))
		}
		logger.Event("model_loaded",
			gsgcn.Log("model", spec.Name),
			gsgcn.Log("checkpoint", spec.Checkpoint),
			gsgcn.Log("model_version", h.ModelVersion),
			gsgcn.Log("dim", h.Dim),
			gsgcn.Log("shards", spec.Shards),
			gsgcn.Log("snapshot", how),
			gsgcn.Log("dur_ms", time.Since(start)))
	}
	if wantDefault != "" {
		if err := reg.SetDefault(wantDefault); err != nil {
			fatal(err)
		}
	}
	logger.Event("default_model", gsgcn.Log("model", reg.Default()))

	if *pprofAt != "" {
		go servePprof(*pprofAt)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: reg}

	// The wire listener rides the same registry: frames run through
	// the same admission and deadline as HTTP requests.
	var wireLn net.Listener
	if *wireAt != "" {
		var err error
		if wireLn, err = net.Listen("tcp", *wireAt); err != nil {
			fatal(err)
		}
		go func() {
			if err := reg.ServeWire(wireLn); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Event("wire_error", gsgcn.Log("error", err.Error()))
			}
		}()
		logger.Event("wire_listening", gsgcn.Log("addr", wireLn.Addr().String()))
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	done := make(chan struct{})
	go handleSignals(sigs, httpSrv, wireLn, reg, 10*time.Second, done)

	logger.Event("listening", gsgcn.Log("addr", *addr), gsgcn.Log("models", len(specs)))
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	// ListenAndServe returns the moment Shutdown closes the listener —
	// while in-flight requests are still draining. Wait for the signal
	// handler to finish the drain and close the registry before exiting.
	<-done
}

// handleSignals is the process lifecycle loop: SIGHUP hot-reloads the
// whole fleet, SIGINT/SIGTERM drains and exits. It closes done when
// shutdown is fully sequenced.
//
// The shutdown order is load-bearing: Shutdown must finish (all
// in-flight requests drained, or the timeout expired) before
// reg.Close marks every model closed — closing first would answer
// still-draining requests with spurious 503s. Its error is logged, not
// dropped: a deadline expiry means requests really were cut off, and
// silence there cost us a dropped-work bug.
func handleSignals(sigs <-chan os.Signal, httpSrv *http.Server, wireLn net.Listener, reg *gsgcn.ModelRegistry, drainTimeout time.Duration, done chan<- struct{}) {
	defer close(done)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			reloadFleet(reg)
			continue
		}
		logger.Event("shutdown", gsgcn.Log("signal", sig.String()))
		// Stop accepting wire connections before the HTTP drain; wire
		// requests already dispatched keep answering until reg.Close.
		if wireLn != nil {
			wireLn.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err := httpSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Event("shutdown_error",
				gsgcn.Log("error", err.Error()),
				gsgcn.Log("note", "in-flight requests may have been dropped"))
		}
		reg.Close()
		return
	}
}

// reloadFleet hot-reloads every model and logs the aggregate outcome:
// each failure individually (that model keeps serving its previous
// snapshot untouched), then the fleet-level tally. One model's
// corrupt checkpoint never stops the others from advancing.
func reloadFleet(reg *gsgcn.ModelRegistry) {
	names := reg.Names()
	failures := reg.ReloadAll()
	for _, name := range names {
		if err, failed := failures[name]; failed {
			logger.Event("reload",
				gsgcn.Log("model", name),
				gsgcn.Log("ok", false),
				gsgcn.Log("error", err.Error()),
				gsgcn.Log("note", "still serving the previous snapshot"))
		} else {
			logger.Event("reload", gsgcn.Log("model", name), gsgcn.Log("ok", true))
		}
	}
	if len(failures) > 0 {
		logger.Event("fleet_reload",
			gsgcn.Log("failed", len(failures)),
			gsgcn.Log("models", len(names)))
	}
}

// servePprof exposes net/http/pprof on its own listener, never on the
// serving address: profiling is an operator tool, and keeping it off
// the public mux means enabling it cannot widen the serving surface.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Event("pprof", gsgcn.Log("addr", addr))
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Event("pprof_error", gsgcn.Log("error", err.Error()))
	}
}
