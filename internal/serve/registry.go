package serve

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"

	"gsgcn/internal/datasets"
	"gsgcn/internal/obs"
)

// Registry serves N independent models from one process. Each model
// is a full Server — its own engine per shard, checkpoint, optional
// warm-start artifact, ANN configuration and snapshot/reload
// lifecycle — keyed by name and reached as
// /models/{name}/embed|predict|topk|healthz|reload; unsharded and
// sharded models mix freely, and dispatch, health listing and fleet
// reload never distinguish them. The unprefixed
// PR 2–4 routes keep working against a configured default model and
// are byte-compatible with a single-model process: the registry
// dispatches them to the default model's own handlers untouched.
//
// Isolation is per model by construction: nothing is shared between
// engines except (read-only) datasets, so one model's reload —
// successful or failing — can neither block nor alter another
// model's answers, and every single-model guarantee (bit-determinism
// of answers, atomic hot reload that never drops in-flight requests)
// carries over unchanged. The registry concurrency suite enforces
// this.
//
// A model serves exactly the *Dataset it was registered with: models
// given the same pointer share one in-memory graph and feature table,
// and a caller that loads each data path once (gsgcn-serve does) gets
// one graph per path.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Server
	order  []string // registration order, for stable listings
	def    string

	// obs is the shared metrics registry every registered model
	// reports into, each under its own model label; the registry's
	// own endpoints report under model="". /metrics renders the whole
	// thing, /models/{name}/metrics one model's rows.
	obs       *obs.Registry
	accessLog *obs.Logger
	inst      *modelMetrics
}

// NewRegistry returns an empty registry. Add at least one model and
// set (or default) a default before serving legacy routes.
func NewRegistry() *Registry {
	r := &Registry{
		models: make(map[string]*Server),
		obs:    obs.NewRegistry(),
	}
	r.inst = newModelMetrics(r.obs, "", nil, []string{"/models", "/metrics"})
	r.inst.all = true
	return r
}

// Metrics returns the shared metrics registry every registered model
// reports into (rendered by GET /metrics).
func (r *Registry) Metrics() *obs.Registry { return r.obs }

// SetAccessLog wires a structured request logger: every model added
// afterwards (and the registry's own endpoints) emits one JSON line
// per request through it, sharing one monotonic request-id space.
// Call before Add/AddSharded and before serving traffic.
func (r *Registry) SetAccessLog(l *obs.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accessLog = l
	r.inst.log = l
}

// validModelName reports whether name can appear as a path segment:
// nonempty, no slashes, none of the reserved spellings.
func validModelName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\ \t\n?#%")
}

// Add registers an unsharded model: a fresh Server over ds with its
// own options. The first model added becomes the default until
// SetDefault says otherwise. The model serves ds itself: the registry
// neither copies nor dedupes it. No checkpoint is loaded yet; call Load
// on the returned server.
func (r *Registry) Add(name string, ds *datasets.Dataset, opts Options) (*Server, error) {
	return r.AddSharded(name, ds, opts, 1, 0)
}

// AddSharded registers a model split across `shards` shard engines
// whose vertex ownership is keyed by seed (see NewRouter). Everything
// Add does — name validation, default election — applies identically;
// with more than one shard the registered model additionally serves
// the /shards operations.
func (r *Registry) AddSharded(name string, ds *datasets.Dataset, opts Options, shards int, seed uint64) (*Server, error) {
	if !validModelName(name) {
		return nil, fmt.Errorf("serve: invalid model name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The model reports into the registry's shared metrics registry
	// and access logger, its series labeled by model name.
	opts.Obs, opts.ModelName, opts.AccessLog = r.obs, name, r.accessLog
	if _, dup := r.models[name]; dup {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	srv, err := NewRouter(ds, opts, shards, seed)
	if err != nil {
		return nil, err
	}
	r.models[name] = srv
	r.order = append(r.order, name)
	if r.def == "" {
		r.def = name
	}
	return srv, nil
}

// SetDefault names the model behind the unprefixed legacy routes.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("serve: unknown model %q", name)
	}
	r.def = name
	return nil
}

// Default returns the name of the model behind the legacy routes
// (empty while the registry is empty).
func (r *Registry) Default() string {
	name, _, _ := r.model("", true)
	return name
}

// Get returns the named model's server.
func (r *Registry) Get(name string) (*Server, bool) {
	_, srv, err := r.model(name, false)
	return srv, err == nil
}

// model is the one model lookup, under one read lock: the model
// named name, or — when name is empty and dflt is set, as for the
// legacy routes and a request frame naming no model — the default
// model, whose name it returns. Its error is the refusal every
// transport sends: 503 while the registry is empty, 404 for an
// unknown name (an empty one included when dflt is unset).
func (r *Registry) model(name string, dflt bool) (string, *Server, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if dflt && name == "" {
		if r.def == "" {
			return "", nil, refusal{errNoModel, "serve: no models registered"}
		}
		name = r.def
	}
	srv, ok := r.models[name]
	if !ok {
		return name, nil, refusal{errNotFound, fmt.Sprintf("serve: unknown model %q", name)}
	}
	return name, srv, nil
}

// Names returns the registered model names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Close closes every model (Server.Close).
func (r *Registry) Close() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, srv := range r.models {
		srv.Close()
	}
}

// ReloadAll reloads every registered model from its last loaded
// checkpoint, sequentially in registration order, and keeps going
// past failures: one model's unreadable or corrupt checkpoint must
// not leave the rest of the fleet serving stale weights. The returned
// map carries one entry per failed model (empty means the whole fleet
// advanced); a failing model's serving snapshot stays exactly as it
// was — the single-model reload guarantee, aggregated.
func (r *Registry) ReloadAll() map[string]error {
	r.mu.RLock()
	names, servers := r.snapshot()
	r.mu.RUnlock()
	failures := make(map[string]error)
	for i, n := range names {
		if _, err := servers[i].Reload(); err != nil {
			failures[n] = err
		}
	}
	return failures
}

// snapshot copies the registered names and servers in registration
// order (r.mu held), so callers can walk the fleet without holding the
// registry lock across reloads or status assembly.
func (r *Registry) snapshot() ([]string, []*Server) {
	names := append([]string(nil), r.order...)
	servers := make([]*Server, len(names))
	for i, n := range names {
		servers[i] = r.models[n]
	}
	return names, servers
}

// modelStatus is one model's entry in the /models listing and the
// body of /models/{name}/healthz: the per-model health surface. It
// embeds the legacy Health — from the same status walk the unprefixed
// /healthz serves — so the extended body is a field superset of the
// legacy one by construction, and adds what only the registry knows:
// the name, default flag, configured sources, and index residency.
// Every field is read from the model's current serving snapshot at
// request time, so it reflects the most recent successful reload, not
// the initial load.
type modelStatus struct {
	Name       string `json:"name"`
	Default    bool   `json:"default"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Artifact   string `json:"artifact,omitempty"`
	Health
	ANNDefault bool   `json:"ann_default"`
	Index      string `json:"index"` // "built" | "lazy" | "none"
	// Shards is the model's shard count; absent for unsharded models,
	// so pre-sharding listings are byte-identical.
	Shards int `json:"shards,omitempty"`
}

// statusFor assembles the live status of one registered model.
func (r *Registry) statusFor(name string, srv *Server) modelStatus {
	f := srv.status()
	ms := modelStatus{Name: name, Default: name == r.Default(), Health: f.Health, ANNDefault: srv.opts.ANN, Index: f.index}
	srv.mu.Lock()
	ms.Checkpoint, ms.Artifact = srv.ckptPath, srv.artBase
	srv.mu.Unlock()
	if srv.sharded() {
		ms.Shards = len(srv.shards)
	}
	return ms
}

// listBody is the GET /models response.
type listBody struct {
	Default string        `json:"default"`
	Models  []modelStatus `json:"models"`
}

// handleList answers GET /models with every model's live status.
func (r *Registry) handleList(w http.ResponseWriter, req *http.Request) {
	writeGet(w, req, func() any {
		r.mu.RLock()
		names, servers := r.snapshot()
		r.mu.RUnlock()
		body := listBody{Default: r.Default(), Models: make([]modelStatus, 0, len(names))}
		for i, n := range names {
			body.Models = append(body.Models, r.statusFor(n, servers[i]))
		}
		sort.SliceStable(body.Models, func(i, j int) bool { return body.Models[i].Name < body.Models[j].Name })
		return body
	})
}

// ServeHTTP routes requests: /models lists, /metrics is the global
// scrape (all models' rows — the per-model view is
// /models/{name}/metrics), /models/{name}/… hits the named model, and
// anything else is the legacy single-model surface and goes to the
// default model's own mux byte-for-byte. Every branch runs under an
// obs middleware: model-addressed requests under the model's own
// instruments, registry-level ones (listing, global scrape, unknown
// names and endpoints, an empty registry) under the registry's.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	// The /v1 prefix is a spelling, not a route: fold it away once and
	// dispatch the canonical path (model muxes fold their own copy, so
	// the legacy fallthrough passes the request untouched).
	path := stripV1(req.URL.Path)
	if path == "/models" || path == "/models/" {
		r.inst.serve("/models", http.HandlerFunc(r.handleList), w, req)
		return
	}
	if path == "/metrics" {
		r.inst.serve("/metrics", http.HandlerFunc(r.inst.handleMetrics), w, req)
		return
	}
	rest, named := strings.CutPrefix(path, "/models/")
	name, sub, _ := strings.Cut(rest, "/")
	if !named {
		name = ""
	}
	name, srv, err := r.model(name, !named)
	shardOp := sub == "shards" || strings.HasPrefix(sub, "shards/")
	switch {
	case err != nil:
		refuseHTTP(r.inst, w, req, err)
	case !named:
		srv.ServeHTTP(w, req)
	case sub == "" || sub == "healthz":
		// Per-model health: the extended status body (a superset of
		// the legacy /healthz fields, plus index residency), also
		// served at the bare /models/{name}. Billed to the model's
		// /healthz endpoint — it is that model's health surface.
		srv.inst.serve("/healthz", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			writeGet(w, req, func() any { return r.statusFor(name, srv) })
		}), w, req)
	case shardOp && !srv.sharded():
		// Shard operations exist only on sharded models.
		refuseHTTP(srv.inst, w, req, refusal{errNotFound, fmt.Sprintf("serve: model %q is not sharded", name)})
	case shardOp || slices.ContainsFunc(perModelEndpoints, func(e RouteDoc) bool { return e.Pattern[1:] == sub }):
		// Hand the request to the model's own mux under the unprefixed
		// spelling; a shallow copy keeps the caller's request (and its
		// URL) untouched.
		req2 := new(http.Request)
		*req2 = *req
		u2 := *req.URL
		u2.Path = "/" + sub
		req2.URL = &u2
		srv.ServeHTTP(w, req2)
	default:
		refuseHTTP(r.inst, w, req, refusal{errNotFound, fmt.Sprintf("serve: unknown endpoint %q for model %q", sub, name)})
	}
}

// refuseHTTP answers req with err's table row, billed to inst's
// catch-all endpoint.
func refuseHTTP(inst *modelMetrics, w http.ResponseWriter, req *http.Request, err error) {
	inst.serve(epOther, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { writeErr(w, err) }), w, req)
}
