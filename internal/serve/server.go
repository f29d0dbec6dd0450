package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/obs"
)

// maxQueryIDs bounds one request's id list; larger lookups should
// page. It bounds the gather one request can make a shard run.
const maxQueryIDs = 4096

// maxBodyBytes caps an HTTP request body: the longest valid id list
// (maxQueryIDs ids of at most 10 digits, each with ", ") plus 4 KiB for
// the envelope. A longer body fails its JSON decode with a 400 before
// the rest of it is read.
const maxBodyBytes = maxQueryIDs*12 + 4096

// Server serves one model: N >= 1 shards, each an Engine holding only
// the embedding rows of the vertices it owns under a deterministic
// partition.ShardMap, behind one admission gate, one obs middleware,
// one serialized load and one top-K memo. The Server owns the model's
// state — checkpoint path, artifact base, each shard's service flag
// and answer count — and hands every install its shard's warm-start
// source. An unsharded model is a fleet of one whole-graph engine
// (NewServer); NewRouter builds the same type over several shards.
//
// Endpoints:
//
//	GET|POST /embed    ?ids=0,1,2     → embedding vectors
//	GET|POST /predict  ?ids=0,1,2     → class labels + probabilities
//	GET      /topk     ?id=7&k=10     → most cosine-similar vertices
//	                   &mode=exact|ann&ef=64 (ann: HNSW beam search)
//	GET      /healthz                 → liveness + serving stats
//	GET      /metrics                 → Prometheus text exposition
//	POST     /reload   {"path": "…"}  → hot-swap a new checkpoint
//
// POST bodies are JSON ({"ids":[…]}). The three query endpoints are
// codecs over the transport-neutral operations in query.go, which the
// negotiated binary encoding and the framed-TCP listener (wire.go)
// share; every response carries the snapshot version it was answered
// from. Every request passes through the shared obs middleware
// (request/latency/error metrics, optional structured access log) —
// observation-only, so answers are bit-identical with instrumentation
// on or off.
//
// Routing is partition-aware, and every shard a query reaches runs on
// the query's own goroutine, in shard order. /embed and /predict build
// one answer and each owning shard writes its ids' rows into their
// positions in it; every id touches exactly one shard. /topk first
// fetches the query vertex's embedding row from its owner, then probes
// every live shard and merges the per-shard candidates through the
// same bounded selector and total order (ann.TopK: descending score,
// ascending id) the single-engine scan uses — selection under it does
// not depend on offer order, so in exact mode the merged answer is
// byte-identical at every shard count and Workers setting
// (test-enforced). In ann mode each shard searches its own HNSW
// index: deterministic at a fixed shard count, but not across shard
// counts (an index over a shard's rows is a different graph than one
// over all rows — see docs/API.md).
//
// A model with more than one shard additionally serves the shard
// operations (shardEndpoints), reports the fleet view in /healthz,
// labels its per-shard metric series and warm-starts shard i from
// artifact.ShardPath of the configured base. Every one of those is
// decided by sharded(); an unsharded model's surface carries no trace
// of shards.
//
// Failure semantics are degraded-not-dead: a stopped shard removes
// only its vertices from service. /healthz always answers 200 and
// reports per-shard status (ok / degraded / loading); requests whose
// ids live on healthy shards keep answering bit-identically, requests
// owned by a down shard fail 503, and /topk answers assembled while a
// non-owning shard was down carry "degraded": true instead of
// silently passing off a partial scan as the full one.
type Server struct {
	ds     *datasets.Dataset
	opts   Options // resolved; shards/shardSeed describe the fleet
	shards []shard

	// gate is the model's admission control; its depth probe reads its
	// own count of admitted queries in flight, top-K included.
	gate *admitGate

	closed atomic.Bool

	mux *http.ServeMux
	// inst is the shared obs middleware; degraded counts queries
	// refused because their owning shard was down plus top-K answers
	// assembled while any shard was down (observation-only, exported
	// only when sharded).
	inst     *modelMetrics
	degraded *obs.Counter

	// installMu serializes installs — Load, Reload, Install, /reload —
	// so two of them can never interleave shard by shard. It is never
	// taken on the query or status paths.
	installMu sync.Mutex
	// ckptPath and artBase are the last successful load's checkpoint and
	// artifact base, the base each shard derives its warm-start source
	// from. Written only by load, under installMu and mu; read under
	// either, so a status read never waits on an install.
	mu       sync.Mutex
	ckptPath string
	artBase  string

	// topkMemo memoizes merged /topk answers per (version, query) — the
	// package's one top-K memo. Answers computed while any shard was
	// down are never memoized: they are partial by construction and
	// must not outlive the outage.
	topkMemo
}

// shard is one of a Server's shards: its engine, whether it is out of
// service, and the point queries it answered.
type shard struct {
	eng  *Engine
	down atomic.Bool

	// answered counts answered point queries, each a batch of one, and
	// doubles as the batch-id sequence: every answer gets the
	// post-increment value as its id, carried on responses so request
	// logs can name it. A query that fails validation is not answered:
	// it burns no id and moves no stats.
	answered atomic.Uint64

	// size and flush are the gsgcn_batcher_* histograms (nil until
	// instrument).
	size, flush *obs.Histogram
}

// point answers one point query's ids into res on the caller's
// goroutine (Engine.point), reporting the id of the batch that carried
// them — unless ctx has already ended, in which case the query is not
// run at all.
func (sh *shard) point(ctx context.Context, res any, ids, at []int) (batch uint64, err error) {
	if err := ended(ctx, "before enqueue"); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := sh.eng.point(res, ids, at); err != nil {
		return 0, err
	}
	batch = sh.answered.Add(1)
	if sh.size != nil {
		sh.size.Observe(float64(len(ids)))
		sh.flush.Observe(time.Since(start).Seconds())
	}
	return batch, nil
}

// RouteDoc names one registered HTTP route: the methods it accepts
// and its path pattern ({name} marks the model-name segment of
// registry routes).
type RouteDoc struct {
	Methods string
	Pattern string
}

// perModelEndpoints enumerates the per-model endpoints. Each is
// served twice: unprefixed against the default model (the PR 2–4
// single-model surface, byte-compatible) and as /models/{name}/…
// through a Registry. The constructor registers handlers from this
// table and RegisteredRoutes derives the documented route list from
// it, so an endpoint cannot be added without showing up in
// docs/API.md (the coverage test in docs_test.go enforces the link).
var perModelEndpoints = []RouteDoc{
	{"GET, POST", "/embed"},
	{"GET, POST", "/predict"},
	{"GET", "/topk"},
	{"GET", "/healthz"},
	{"GET", "/metrics"},
	{"POST", "/reload"},
}

// shardEndpoints enumerates the shard-operations routes a sharded
// model adds on top of the per-model endpoints. Like
// perModelEndpoints, the table is the single source both the handlers
// and the documented route list derive from.
var shardEndpoints = []RouteDoc{
	{"GET", "/shards"},
	{"POST", "/shards/{i}/stop"},
	{"POST", "/shards/{i}/start"},
}

// RegisteredRoutes returns every HTTP route a Registry-fronted
// process serves: the registry's own endpoints plus both spellings of
// each per-model endpoint and of each shard operation (served when
// the model is sharded), each additionally registered under the
// versioned /v1 prefix (the canonical spelling; the unprefixed routes
// are byte-compatible legacy aliases). docs/API.md must document all
// of them.
func RegisteredRoutes() []RouteDoc {
	routes := []RouteDoc{
		{"GET", "/models"},
		// The bare model path is an alias for …/healthz (the extended
		// per-model status body).
		{"GET", "/models/{name}"},
	}
	for _, prefix := range []string{"/models/{name}", ""} {
		for _, table := range [][]RouteDoc{perModelEndpoints, shardEndpoints} {
			for _, e := range table {
				routes = append(routes, RouteDoc{e.Methods, prefix + e.Pattern})
			}
		}
	}
	for _, e := range append([]RouteDoc(nil), routes...) {
		routes = append(routes, RouteDoc{e.Methods, "/v1" + e.Pattern})
	}
	return routes
}

// stripV1 folds the versioned /v1 spelling of a path onto its
// unprefixed alias, so both spellings share one dispatch table and
// one pre-registered endpoint metric label (the cardinality bound:
// the version prefix must not mint new label values).
func stripV1(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/"); ok {
		return "/" + rest
	}
	return path
}

// notFoundHandler answers unroutable paths with the JSON error
// envelope — the one error shape every endpoint speaks (the net/http
// default would emit a plain-text 404). The /v1 prefix is folded
// away so an unknown path 404s byte-identically under both
// spellings, like every other answer.
func notFoundHandler(w http.ResponseWriter, r *http.Request) {
	writeErr(w, refusal{errNotFound, fmt.Sprintf("serve: unknown endpoint %q", stripV1(r.URL.Path))})
}

// handlerFor maps a per-model endpoint pattern to its handler on s.
func (s *Server) handlerFor(pattern string) http.HandlerFunc {
	switch pattern {
	case "/embed":
		return func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, false) }
	case "/predict":
		return func(w http.ResponseWriter, r *http.Request) { s.handlePoint(w, r, true) }
	case "/topk":
		return s.handleTopK
	case "/healthz":
		return s.handleHealthz
	case "/metrics":
		return s.inst.handleMetrics
	case "/reload":
		return s.handleReload
	}
	panic("serve: endpoint " + pattern + " has no handler")
}

// NewServer builds an unsharded model server over ds: a fleet of one
// whole-graph engine. No checkpoint is loaded yet; call Load (or POST
// /reload with a path) before serving queries.
func NewServer(ds *datasets.Dataset, opts Options) *Server {
	return newServer(ds, opts, 1, 0)
}

// NewRouter builds a model server over ds split across shards Engines
// whose vertex ownership is the deterministic ShardMap{shards, seed}.
// Options.ArtifactPath, when set, is the fleet-wide artifact base —
// shard i warm-starts from artifact.ShardPath(base, i, shards). With
// shards == 1 the result is exactly NewServer's. No checkpoint is
// loaded yet; call Load before serving queries.
func NewRouter(ds *datasets.Dataset, opts Options, shards int, seed uint64) (*Server, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: shard count must be >= 1, got %d", shards)
	}
	return newServer(ds, opts, shards, seed), nil
}

func newServer(ds *datasets.Dataset, opts Options, shards int, seed uint64) *Server {
	opts = opts.withDefaults()
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	opts.shards, opts.shard, opts.shardSeed = shards, 0, seed
	s := &Server{
		ds:       ds,
		opts:     opts,
		shards:   make([]shard, shards),
		artBase:  opts.ArtifactPath,
		degraded: new(obs.Counter),
		topkMemo: topkMemo{cache: make(map[topkKey]*TopKResult)},
	}
	s.gate = newAdmitGate(opts)
	for i := range s.shards {
		o := opts
		o.shard, o.ArtifactPath = i, "" // each install passes the shard its source
		s.shards[i].eng = NewEngine(ds, o)
		s.shards[i].instrument(opts.Obs, o.seriesLabels(), s.gate)
	}
	model := map[string]string{"model": opts.ModelName}
	s.gate.instrument(opts.Obs, model)
	s.mux = http.NewServeMux()
	routes := perModelEndpoints
	if s.sharded() {
		routes = append(routes[:len(routes):len(routes)], shardEndpoints...)
		// Shard operations are hand-routed below their subtree (the
		// module targets pre-1.22 ServeMux, which has no wildcard
		// patterns).
		for _, prefix := range []string{"", "/v1"} {
			s.mux.HandleFunc(prefix+"/shards", s.handleShards)
			s.mux.HandleFunc(prefix+"/shards/", s.handleShardOp)
		}
		s.degraded = opts.Obs.Counter("gsgcn_degraded_queries_total",
			"Queries refused because their owning shard was down, plus top-K answers assembled without a down shard's vertices.",
			model)
		for i := range s.shards {
			sh := &s.shards[i]
			opts.Obs.GaugeFunc("gsgcn_shard_up", "1 when the shard is in service, 0 while stopped.",
				sh.eng.opts.seriesLabels(), func() float64 { return flag(!sh.down.Load()) })
		}
	}
	s.inst = newModelMetrics(opts.Obs, opts.ModelName, opts.AccessLog, endpointPatterns(routes))
	for _, e := range perModelEndpoints {
		h := s.handlerFor(e.Pattern)
		s.mux.HandleFunc(e.Pattern, h)
		s.mux.HandleFunc("/v1"+e.Pattern, h)
	}
	s.mux.HandleFunc("/", notFoundHandler)
	return s
}

// sharded is the one predicate (shards > 1, the same one that makes
// an Engine a shard engine) behind every difference between a sharded
// model's surface and an unsharded one's.
func (s *Server) sharded() bool { return s.opts.sharded() }

// shardArtifact derives shard i's warm-start source from the artifact
// base: its ShardPath on a fleet, the unsuffixed base when unsharded,
// nothing when the warm path is disabled.
func (s *Server) shardArtifact(base string, i int) string {
	if base == "" || !s.sharded() {
		return base
	}
	return artifact.ShardPath(base, i, len(s.shards))
}

// Health returns the model's fleet-wide status — the body of its
// unsharded /healthz.
func (s *Server) Health() Health { return s.status().Health }

// Shard returns shard i's engine (for tests and direct inspection).
func (s *Server) Shard(i int) *Engine { return s.shards[i].eng }

// Shards returns the model's shard count (1 when unsharded).
func (s *Server) Shards() int { return len(s.shards) }

// Load reads the checkpoint at path once, installs the model on every
// shard and remembers the path as the default for subsequent Reload
// calls, returning the new version. An empty path re-reads the last
// loaded checkpoint, as Reload does.
func (s *Server) Load(path string) (uint64, error) {
	h, err := s.load(path, nil)
	return h.Version, err
}

// Reload re-reads the last loaded checkpoint path and swaps the new
// snapshot in without interrupting in-flight requests.
func (s *Server) Reload() (uint64, error) { return s.Load("") }

// load is the one serialized load behind Load, Reload and /reload: it
// reads the checkpoint at path ("" = the last loaded) and installs it
// with the artifact base *base (nil = the current base), reporting the
// health of what it installed. The path and base are remembered only
// once the install succeeds, so a failed load leaves every piece of
// serving state as it was.
func (s *Server) load(path string, base *string) (Health, error) {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	if path == "" {
		path = s.ckptPath
	}
	if path == "" {
		return Health{}, fmt.Errorf("serve: no checkpoint path to reload")
	}
	if base == nil {
		base = &s.artBase
	}
	m, err := core.LoadModelFile(path)
	if err != nil {
		return Health{}, err
	}
	if _, err := s.install(m, *base); err != nil {
		return Health{}, err
	}
	s.mu.Lock()
	s.ckptPath, s.artBase = path, *base
	s.mu.Unlock()
	return s.Health(), nil
}

// CheckpointPath returns the checkpoint the server last loaded
// (empty before the first Load).
func (s *Server) CheckpointPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptPath
}

// Install publishes an in-memory model on every shard engine in
// lockstep, warm-starting from the current artifact base; a model
// modelFits refuses (core.ErrNonFinite among them) changes nothing.
func (s *Server) Install(m *core.Model) (uint64, error) {
	s.installMu.Lock()
	defer s.installMu.Unlock()
	return s.install(m, s.artBase)
}

// install publishes m on every shard, shard i warm-starting from its
// shardArtifact of base (installMu held). The expensive whole-graph
// table compute is shared: the first shard that misses its warm-start
// artifact runs it, every other cold shard compacts from the same
// tables. Each engine bumps its version by exactly one per install, and
// the only failure modes (model/dataset shape mismatch, a non-finite
// weight: modelFits) are identical across shards, so shard versions
// can never diverge.
func (s *Server) install(m *core.Model, base string) (uint64, error) {
	full := sharedTables(m, s.ds, s.opts)
	var version uint64
	for i := range s.shards {
		v, err := s.shards[i].eng.installShared(m, s.shardArtifact(base, i), full)
		if err != nil {
			if s.sharded() {
				err = fmt.Errorf("serve: shard %d: %w", i, err)
			}
			return 0, err
		}
		version = v
	}
	s.dropStale(version)
	return version, nil
}

// Close marks the server closed: subsequent queries on every endpoint
// and transport fail with the retryable errClosed, and queries already
// past that check finish with their answer.
func (s *Server) Close() { s.closed.Store(true) }

// setShardDown takes shard i out of service or returns it: while down
// its vertices stop answering (503) and /healthz reports the fleet
// degraded. The shard's snapshot is kept, so restoring service is
// instant.
func (s *Server) setShardDown(i int, down bool) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("serve: shard %d out of range [0,%d)", i, len(s.shards))
	}
	s.shards[i].down.Store(down)
	return nil
}

// ServeHTTP implements http.Handler. Every request — known endpoint
// or not — runs under the obs middleware; unknown paths fold into the
// catch-all endpoint label, /v1 spellings share their alias's label,
// and shard-operation paths are normalized to their documented
// patterns so a shard index can never mint a label value.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint := stripV1(r.URL.Path)
	if rest, ok := strings.CutPrefix(endpoint, "/shards/"); ok {
		if _, op, _ := strings.Cut(rest, "/"); op == "stop" || op == "start" {
			endpoint = "/shards/{i}/" + op
		}
	}
	var h http.Handler = s.mux
	// A fleet has always answered an unclean path ("//embed",
	// "/a/../embed") with the JSON 404; ServeMux 301s to the cleaned
	// path, as it always has for an unsharded model.
	if p := r.URL.Path; s.sharded() && p != "/" && path.Clean(p) != strings.TrimSuffix(p, "/") {
		h = http.HandlerFunc(notFoundHandler)
	}
	s.inst.serve(endpoint, h, w, r)
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// parseVertexID is the one vertex-id parser for every query
// endpoint: plain base-10 digits, nothing else. strconv.Atoi is
// deliberately not used directly — it accepts "+3" and "-0", and
// ad-hoc trimming made "%203" valid on one endpoint and a 400 on
// another. Every endpoint rejecting the same surface forms with the
// same error text is what keeps malformed input byte-identical across
// shard counts too.
func parseVertexID(tok string) (int, error) {
	bad := func() (int, error) {
		return 0, fmt.Errorf("serve: bad vertex id %q (want plain decimal digits)", tok)
	}
	if tok == "" || len(tok) > 10 {
		return bad()
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return bad()
		}
	}
	id, err := strconv.Atoi(tok)
	if err != nil {
		return bad()
	}
	return id, nil
}

// parseIDs extracts the queried vertex ids from ?ids=… or a JSON
// body {"ids":[…]} — the HTTP surface form only; the id-list bounds
// every transport shares are checked by the point operation.
func parseIDs(r *http.Request) ([]int, error) {
	switch r.Method {
	case http.MethodGet:
		raw := r.URL.Query().Get("ids")
		if raw == "" {
			return nil, fmt.Errorf("serve: missing ids parameter")
		}
		var ids []int
		for _, tok := range strings.Split(raw, ",") {
			id, err := parseVertexID(tok)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		return ids, nil
	case http.MethodPost:
		var body struct {
			IDs []int `json:"ids"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return nil, fmt.Errorf("serve: bad JSON body: %w", err)
		}
		return body.IDs, nil
	}
	return nil, fmt.Errorf("%w: %s", errMethod, r.Method)
}

// parseTopKQuery validates a /topk request against the model's graph
// and defaults.
func (s *Server) parseTopKQuery(r *http.Request) (topkQuery, error) {
	if r.Method != http.MethodGet {
		return topkQuery{}, fmt.Errorf("%w: %s", errMethod, r.Method)
	}
	q := r.URL.Query()
	if q.Get("id") == "" {
		return topkQuery{}, fmt.Errorf("serve: missing id parameter")
	}
	id, err := parseVertexID(q.Get("id"))
	if err != nil {
		return topkQuery{}, err
	}
	k, kSet := 0, false
	if raw := q.Get("k"); raw != "" {
		kSet = true
		if k, err = strconv.Atoi(raw); err != nil {
			return topkQuery{}, fmt.Errorf("serve: bad k parameter %q", raw)
		}
	}
	// The mode is resolved before ef is parsed so a doubly-invalid
	// request reports the bad mode first, as it always has.
	ann, err := s.opts.queryMode(q.Get("mode"))
	if err != nil {
		return topkQuery{}, err
	}
	ef := 0
	if raw := q.Get("ef"); raw != "" {
		if ef, err = strconv.Atoi(raw); err != nil || ef < 1 {
			return topkQuery{}, fmt.Errorf("serve: bad ef parameter %q (want a positive integer)", raw)
		}
	}
	return resolveTopK(topkQuery{id: id, k: k, ann: ann, ef: ef}, kSet, s.ds.G.NumVertices())
}

// handlePoint is the HTTP codec of the point operation: /embed
// (predict false) and /predict.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request, predict bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	res, err := s.point(r.Context(), func() ([]int, error) { return parseIDs(r) }, predict)
	writeQuery(w, r, res, err)
}

// handleTopK is the HTTP codec of the top-K operation.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	res, err := s.topK(r.Context(), func() (topkQuery, error) { return s.parseTopKQuery(r) })
	writeQuery(w, r, res, err)
}

// Health is a model's status as its unsharded /healthz reports it,
// aggregated over its shards. It is the one body behind the legacy
// /healthz response, the sharded one (routerHealth embeds it) and the
// per-model extended status (modelStatus embeds it), so the documented
// "per-model healthz is a superset of legacy /healthz" invariant holds
// by construction. Status is "ok" (every shard serving), "degraded"
// (some shard down or still loading while others serve) or "loading"
// (nothing serving yet); the endpoint always answers HTTP 200 — a down
// shard degrades the fleet, it does not kill it. WarmStart holds only
// when every shard warmed, and WarmNote is the first shard's reason for
// falling back.
type Health struct {
	Status       string  `json:"status"`
	Version      uint64  `json:"version"`
	ModelVersion uint64  `json:"model_version"`
	Vertices     int     `json:"vertices"`
	Edges        int64   `json:"edges"`
	Dim          int     `json:"dim"`
	Classes      int     `json:"classes"`
	WarmStart    bool    `json:"warm_start"`
	WarmNote     string  `json:"warm_note,omitempty"`
	Dtype        string  `json:"dtype"`
	ResidentB    int64   `json:"resident_bytes"`
	MappedB      int64   `json:"mapped_bytes,omitempty"`
	Batches      uint64  `json:"batches"`
	Queries      uint64  `json:"queries"`
	Coalescing   float64 `json:"coalescing"`
}

// shardState is one shard's entry in GET /shards and a sharded
// model's /healthz shard detail.
type shardState struct {
	Shard    int    `json:"shard"`
	Status   string `json:"status"` // "ok" | "down" | "loading"
	Vertices int    `json:"vertices"`
	Version  uint64 `json:"version,omitempty"`
	Warm     bool   `json:"warm_start,omitempty"`
}

// routerHealth is the sharded /healthz body: the health fields every
// model reports plus the fleet view.
type routerHealth struct {
	Health
	Shards      int          `json:"shards"`
	ShardSeed   uint64       `json:"shard_seed"`
	ShardsDown  int          `json:"shards_down"`
	ShardDetail []shardState `json:"shard_detail"`
}

// shardsBody is the GET /shards response.
type shardsBody struct {
	Shards    int          `json:"shards"`
	ShardSeed uint64       `json:"shard_seed"`
	Detail    []shardState `json:"detail"`
}

// fleetStatus is what one pass over the shards' snapshots finds.
type fleetStatus struct {
	Health
	detail []shardState
	down   int    // shards out of service
	index  string // "built" | "lazy" | "none"
}

// status is the one status walk: a single pass over the shards'
// snapshots feeds /healthz, /shards, /models and /reload.
func (s *Server) status() fleetStatus {
	f := fleetStatus{
		Health: Health{
			Status:   "loading",
			Vertices: s.ds.G.NumVertices(),
			Edges:    s.ds.G.NumEdges(),
			Classes:  s.ds.NumClasses,
			Dtype:    s.opts.Dtype.String(),
		},
		detail: make([]shardState, len(s.shards)),
		index:  "none",
	}
	loaded, warm, built := 0, true, true
	for i := range s.shards {
		sh := &s.shards[i]
		// Summed so every shard count reports the same batching fields.
		// Every answer is a batch of one: queries equal batches,
		// coalescing is 1.
		f.Batches += sh.answered.Load()
		ss := shardState{Shard: i, Status: "loading", Vertices: len(sh.eng.owned)}
		if st, err := sh.eng.Snapshot(); err != nil {
			warm, built = false, false
		} else {
			if loaded++; loaded == 1 {
				f.Version, f.ModelVersion = st.Version, st.ModelVersion
				f.Dim, f.Dtype = st.Dim(), st.Dtype().String()
			}
			if f.WarmNote == "" {
				f.WarmNote = st.WarmNote
			}
			// Memory-plane bytes sum across the fleet: the per-process
			// answer a capacity planner wants.
			f.ResidentB += st.ResidentBytes()
			f.MappedB += st.MappedBytes()
			warm, built = warm && st.WarmStart, built && st.IndexReady()
			ss.Status, ss.Version, ss.Warm = "ok", st.Version, st.WarmStart
		}
		if sh.down.Load() {
			ss.Status = "down"
			f.down++
		}
		f.detail[i] = ss
	}
	if loaded > 0 {
		f.Status, f.index = "ok", "lazy"
		if f.down > 0 || loaded < len(s.shards) {
			f.Status = "degraded"
		}
		if built {
			f.index = "built"
		}
	}
	f.WarmStart = loaded > 0 && warm
	if f.Queries = f.Batches; f.Batches > 0 {
		f.Coalescing = 1
	}
	return f
}

// writeGet answers a GET-only JSON endpoint: body() with 200, or
// errMethod's row for any other method.
func writeGet(w http.ResponseWriter, r *http.Request, body func() any) {
	if r.Method != http.MethodGet {
		writeErr(w, fmt.Errorf("%w: %s", errMethod, r.Method))
		return
	}
	writeJSON(w, http.StatusOK, body())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeGet(w, r, func() any {
		f := s.status()
		if !s.sharded() {
			return f.Health
		}
		return routerHealth{
			Health:      f.Health,
			Shards:      len(s.shards),
			ShardSeed:   s.opts.shardSeed,
			ShardsDown:  f.down,
			ShardDetail: f.detail,
		}
	})
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeGet(w, r, func() any {
		return shardsBody{
			Shards:    len(s.shards),
			ShardSeed: s.opts.shardSeed,
			Detail:    s.status().detail,
		}
	})
}

// handleShardOp serves POST /shards/{i}/stop and /shards/{i}/start.
func (s *Server) handleShardOp(w http.ResponseWriter, r *http.Request) {
	rest, _ := strings.CutPrefix(stripV1(r.URL.Path), "/shards/")
	idxStr, op, _ := strings.Cut(rest, "/")
	i, err := strconv.Atoi(idxStr)
	if err != nil || op != "stop" && op != "start" {
		notFoundHandler(w, r)
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, fmt.Errorf("%w: %s", errMethod, r.Method))
		return
	}
	if err := s.setShardDown(i, op == "stop"); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.status().detail[i])
}

// reloadBody is the successful /reload response.
type reloadBody struct {
	Version      uint64 `json:"version"`
	ModelVersion uint64 `json:"model_version"`
	WarmStart    bool   `json:"warm_start"`
	WarmNote     string `json:"warm_note,omitempty"`
}

// handleReload hot-swaps a checkpoint: {"path": …} loads a new one,
// no path re-reads the last, and {"artifact": base} makes base the
// artifact base of this load — every shard warm-starts from its
// ShardPath under it — and, once the load succeeds, of every later one.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, refusal{errMethod, "serve: reload requires POST"})
		return
	}
	var body struct {
		Path string `json:"path"`
		// Artifact is the new base: a string points at a new artifact
		// file, "" disables the warm path, and an absent field keeps the
		// current base.
		Artifact *string `json:"artifact"`
	}
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
			writeErr(w, fmt.Errorf("serve: bad JSON body: %w", err))
			return
		}
	}
	h, err := s.load(body.Path, body.Artifact)
	if err != nil {
		writeErr(w, refusal{errInternal, err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, reloadBody{Version: h.Version, ModelVersion: h.ModelVersion, WarmStart: h.WarmStart, WarmNote: h.WarmNote})
}
