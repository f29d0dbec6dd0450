package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gsgcn/internal/obs"
)

// defaultModelName labels the metrics of a server built without an
// explicit model name (the single-model deployments of PR 2–4).
const defaultModelName = "default"

// epOther is the catch-all endpoint label for unrecognized paths.
// Folding every unknown path into one value means request paths can
// never mint new label values — the cardinality bound the obs package
// promises.
const epOther = "other"

// statusClasses are the bounded status-code label values: one per
// HTTP status family rather than one per code.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics holds one endpoint's pre-registered handles so the
// request path is an array index plus atomic adds — no registry
// lookup, no lock, no allocation.
type endpointMetrics struct {
	byClass [4]*obs.Counter
	latency *obs.Histogram
}

// modelMetrics instruments one model server's HTTP surface: the
// shared middleware both layers (Server, Registry) route requests
// through. It owns the per-endpoint request/latency/error
// handles and, when an access logger is wired, emits one structured
// JSON line per request.
type modelMetrics struct {
	reg       *obs.Registry
	model     string
	log       *obs.Logger
	endpoints map[string]*endpointMetrics
	// all makes handleMetrics render the whole shared registry, not
	// just this model's series: set on the Registry's own instruments.
	all bool

	// reqHTTP/reqWire split gsgcn_requests_total by transport: every
	// request through the HTTP surface (JSON or negotiated binary
	// body) versus every frame on the persistent TCP listener.
	reqHTTP *obs.Counter
	reqWire *obs.Counter
}

// newModelMetrics pre-registers handles for the given endpoint
// patterns (plus the catch-all) under the model label. Eager
// registration keeps the hot path lock-free and makes every series —
// including never-hit endpoints — visible to scrapers from the first
// request.
func newModelMetrics(reg *obs.Registry, model string, log *obs.Logger, endpoints []string) *modelMetrics {
	mm := &modelMetrics{
		reg:       reg,
		model:     model,
		log:       log,
		endpoints: make(map[string]*endpointMetrics, len(endpoints)+1),
	}
	for _, ep := range endpoints {
		mm.endpoints[ep] = newEndpointMetrics(reg, model, ep)
	}
	mm.endpoints[epOther] = newEndpointMetrics(reg, model, epOther)
	const reqHelp = "Requests served, by model and transport (http = the HTTP surface, wire = the persistent TCP listener)."
	mm.reqHTTP = reg.Counter("gsgcn_requests_total", reqHelp,
		map[string]string{"model": model, "transport": "http"})
	mm.reqWire = reg.Counter("gsgcn_requests_total", reqHelp,
		map[string]string{"model": model, "transport": "wire"})
	return mm
}

// countWire bills one wire-transport frame.
func (mm *modelMetrics) countWire() { mm.reqWire.Inc() }

func newEndpointMetrics(reg *obs.Registry, model, ep string) *endpointMetrics {
	em := &endpointMetrics{}
	for i, class := range statusClasses {
		em.byClass[i] = reg.Counter("gsgcn_http_requests_total",
			"HTTP requests served, by model, endpoint and status class.",
			map[string]string{"model": model, "endpoint": ep, "code": class})
	}
	em.latency = reg.Histogram("gsgcn_http_request_duration_seconds",
		"HTTP request latency in seconds, by model and endpoint.",
		map[string]string{"model": model, "endpoint": ep}, obs.LatencyBuckets)
	return em
}

// endpointPatterns lists a route table's endpoint label values to
// pre-register.
func endpointPatterns(routes []RouteDoc) []string {
	out := make([]string, len(routes))
	for i, e := range routes {
		out[i] = e.Pattern
	}
	return out
}

// statusWriter records the status code a handler wrote (200 when it
// wrote a body without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// annotKey keys the per-request annotation in the request context.
type annotKey struct{}

// reqAnnot carries observability facts a handler learns mid-flight —
// scatter fan-out width, batch id — back to the middleware for
// the request log line. It is written and read on the one goroutine
// serving the request.
type reqAnnot struct {
	fanout int
	batch  uint64
}

// annotOf returns the request's annotation carrier, nil on contexts
// the logging middleware did not prepare (no access log wired, or a
// wire-listener frame).
func annotOf(ctx context.Context) *reqAnnot {
	a, _ := ctx.Value(annotKey{}).(*reqAnnot)
	return a
}

// serve runs h under the shared middleware: a status-class counter
// bump, one latency observation, and (when an access logger is wired)
// one JSON request line carrying the process-wide monotonic request
// id. endpoint must be one of the pre-registered patterns; anything
// else folds into the catch-all.
func (mm *modelMetrics) serve(endpoint string, h http.Handler, w http.ResponseWriter, r *http.Request) {
	em := mm.endpoints[endpoint]
	if em == nil {
		endpoint, em = epOther, mm.endpoints[epOther]
	}
	mm.reqHTTP.Inc()
	var (
		id uint64
		an *reqAnnot
	)
	if mm.log != nil {
		id = mm.log.NextID()
		an = &reqAnnot{}
		r = r.WithContext(context.WithValue(r.Context(), annotKey{}, an))
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	h.ServeHTTP(sw, r)
	dur := time.Since(start)
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	class := code/100 - 2
	if class < 0 {
		class = 0
	}
	if class > 3 {
		class = 3
	}
	em.byClass[class].Inc()
	em.latency.Observe(dur.Seconds())
	if mm.log != nil {
		fields := make([]obs.Field, 0, 8)
		fields = append(fields,
			obs.F("id", id),
			obs.F("model", mm.model),
			obs.F("endpoint", endpoint),
			obs.F("method", r.Method),
			obs.F("status", code),
			obs.F("dur_ms", dur),
		)
		if an.fanout > 0 {
			fields = append(fields, obs.F("fanout", an.fanout))
		}
		if an.batch > 0 {
			fields = append(fields, obs.F("batch", an.batch))
		}
		mm.log.Event("request", fields...)
	}
}

// handleMetrics renders the scrape: only series labeled with this
// model's name — even an empty one — for a model server (also behind
// /models/{name}/metrics), the whole shared registry — every model's
// rows and the registry's own — for the registry's bare /metrics.
func (mm *modelMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, fmt.Errorf("%w: %s", errMethod, r.Method))
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = mm.reg.WriteFiltered(w, func(l map[string]string) bool { return mm.all || l["model"] == mm.model })
}

// flag is the gauge value of a boolean: 1 when on, 0 otherwise.
func flag(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

// registerMetrics exports the engine's snapshot gauges: every reader
// loads the atomic state pointer, so a scrape can never wait on
// reloadMu however slow a concurrent snapshot build is.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	gauge := func(name, help string, labels map[string]string, read func(*State) float64) {
		reg.GaugeFunc(name, help, labels, func() float64 {
			if st := e.state.Load(); st != nil {
				return read(st)
			}
			return 0
		})
	}
	labels := e.opts.seriesLabels()
	gauge("gsgcn_snapshot_version",
		"Swap generation of the serving snapshot (0 = no model loaded).",
		labels, func(st *State) float64 { return float64(st.Version) })
	gauge("gsgcn_snapshot_warm_start",
		"1 when the serving snapshot warm-started from a persisted artifact.",
		labels, func(st *State) float64 { return flag(st.WarmStart) })
	gauge("gsgcn_index_resident",
		"1 when the snapshot's ANN index is built and resident.",
		labels, func(st *State) float64 { return flag(st.IndexReady()) })
	// The memory-plane gauges carry the dtype label (a per-engine
	// constant, so cardinality stays bounded): resident is the private
	// working set of the table representation, mapped the size of the
	// artifact mapping behind it (0 for a cold compute).
	dlabels := e.opts.seriesLabels()
	dlabels["dtype"] = e.opts.Dtype.String()
	gauge("gsgcn_resident_bytes",
		"Bytes of the serving table working set held privately: the f64 table when held on the heap, the norms, and quantized codes plus codebooks.",
		dlabels, func(st *State) float64 { return float64(st.ResidentBytes()) })
	gauge("gsgcn_mapped_bytes",
		"Bytes of the memory-mapped artifact backing the snapshot (0 for a cold compute).",
		dlabels, func(st *State) float64 { return float64(st.MappedBytes()) })
}

// instrument exports the shard's gsgcn_batcher_* series, named for the
// micro-batcher that once answered point queries. The counts already
// tracked in atomics — the shard's answers and the model gate's
// in-flight count — surface as func-backed series: no double
// accounting. Call before the shard takes traffic.
func (sh *shard) instrument(reg *obs.Registry, labels map[string]string, gate *admitGate) {
	answered := func() float64 { return float64(sh.answered.Load()) }
	reg.GaugeFunc("gsgcn_batcher_queue_depth",
		"Admitted queries of the model in flight (equal to gsgcn_inflight; the depth -shed-queue checks).",
		labels, func() float64 { return float64(gate.Inflight()) })
	reg.CounterFunc("gsgcn_batcher_batches_total",
		"Point queries answered, each a batch of one.",
		labels, answered)
	reg.CounterFunc("gsgcn_batcher_queries_total",
		"Point queries answered (equal to gsgcn_batcher_batches_total).",
		labels, answered)
	sh.size = reg.Histogram("gsgcn_batcher_batch_size",
		"Vertex ids per answered point query.",
		labels, obs.SizeBuckets)
	sh.flush = reg.Histogram("gsgcn_batcher_flush_duration_seconds",
		"Wall time to answer one point query on the shard.",
		labels, obs.LatencyBuckets)
}
