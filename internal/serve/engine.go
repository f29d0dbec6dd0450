// Package serve implements the online inference subsystem: the
// serving half of the paper's pipeline, as a snapshot lifecycle plus
// codecs. It keeps no numerics of its own. The embedding table is the
// one full-graph forward pass, core.Model.FullEmbeddings — the exact
// embeddings the paper evaluates (Section VI), aggregated by the same
// partition kernel training uses; the classifier head is nn.Dense.Apply
// and the cosine scans are mat's dot; every top-K, exact or
// approximate, selects through ann.TopK and ranks by ann.Before.
//
// The computed embedding table, the model that produced it, and a
// top-K similarity index form one immutable State published through
// an atomic pointer: hot reload builds the next State off to the side
// and swaps it in, so in-flight requests finish against the snapshot
// they started with and nothing is ever locked on the query path.
//
// Determinism: the embedding table is bit-identical at every Workers
// setting and to the training-side forward pass (see
// core.Model.FullEmbeddings), and selection under a total order does
// not depend on how a scan was split, so every answer is too.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/obs"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
)

// Options parameterizes an inference engine.
type Options struct {
	// Workers is the goroutine budget for embedding computation, index
	// builds and exact top-K scans (0 = GOMAXPROCS); an ANN query runs
	// on its caller's goroutine. Results are identical at every setting.
	Workers int
	// ANN makes the HNSW index the default /topk mode (requests may
	// still pick mode=exact per call). The index is built lazily on
	// the first ANN query against a snapshot and memoized until the
	// next reload.
	ANN bool
	// ANNM is the HNSW connectivity: links per vertex per upper
	// layer, twice that on the base layer (0 = 16).
	ANNM int
	// ANNEf is the default ANN query beam width (0 = 64). Requests
	// may override it per call with the ef parameter; recall rises
	// with ef at the cost of visiting more candidates.
	ANNEf int
	// Dtype selects the resident representation of the serving table:
	// f64 (the zero value), f32 or i8pq. Exact-mode answers are
	// byte-identical across dtypes by construction — a quantized
	// representation only steers the ANN walk to a candidate beam, which
	// is reranked with exact float64 scores before anything is returned.
	Dtype mat.Dtype
	// ArtifactPath names a snapshot artifact file (internal/artifact,
	// produced by cmd/gsgcn-index) to warm-start from. When set, every
	// install — initial load and hot reload alike — first tries to
	// load the precomputed embedding table and HNSW index from the
	// artifact, validated against the checkpoint's model_version plus
	// arch metadata and the dataset's vertex, edge and feature counts;
	// any mismatch, corruption or absence falls back to the lazy full
	// compute (the reason lands in State.WarmNote and /healthz). Empty
	// disables the warm path. On a Server it is the initial artifact
	// base, which the Server owns from then on: each install
	// warm-starts shard i from the base's artifact.ShardPath.
	ArtifactPath string
	// shards, shard and shardSeed are a shard engine's identity, set
	// only by newServer: the engine holds and serves only the embedding
	// rows of the vertices shard owns under partition.ShardMap{shards,
	// shardSeed}, and a query for a vertex another shard owns fails with
	// errNotOwned. shards <= 1 is the whole-graph engine.
	shards, shard int
	shardSeed     uint64
	// Deadline bounds each query's time in the serving path (0 =
	// none), counted from its arrival, before admission and parsing.
	// Work whose deadline has passed does not start — a point query's
	// per-shard gather, a top-K query's shard probes — and a top-K
	// answer ready only after it is not sent: the client gets a 504. A
	// client that disconnected gets a 503 the same way. Deadlines
	// change only *whether* a request is answered, never the bytes of
	// an answered response.
	Deadline time.Duration
	// ShedQueueHW is the admission gate's depth high-water mark: when
	// this many admitted queries of the model are already in flight,
	// new queries are shed with 429 before any work starts. 0 disables
	// shedding.
	ShedQueueHW int
	// QPSLimit is the per-model admission quota in queries/sec,
	// enforced by a token bucket with one second of burst credit.
	// Exhausted quota sheds with 429. 0 = unlimited.
	QPSLimit float64
	// Obs is the metrics registry this engine (and the request layer
	// above it) reports into. Nil makes NewServer/NewRouter create a
	// private one; a raw NewEngine with nil Obs is simply unobserved.
	// Metrics are observation-only: nothing on a query or reload path
	// ever reads them back, so answers are bit-identical with
	// instrumentation on or off.
	Obs *obs.Registry
	// ModelName labels this engine's metric series (and request log
	// lines). The registry sets it to the registered model name;
	// empty means "default".
	ModelName string
	// AccessLog, when set, makes the request layer emit one
	// structured JSON line per HTTP request (id, model, endpoint,
	// status, latency, fan-out, batch id).
	AccessLog *obs.Logger
}

// sharded reports whether the options describe a shard engine rather
// than a whole-graph one.
func (o Options) sharded() bool { return o.shards > 1 }

// shardMap returns the vertex-shard assignment the options describe.
func (o Options) shardMap() partition.ShardMap {
	return partition.ShardMap{Shards: o.shards, Seed: o.shardSeed}
}

// seriesLabels returns the labels of this engine's metric series: the
// model name, plus the shard index when the engine is one shard of a
// fleet — an unsharded model's series carry no shard label.
func (o Options) seriesLabels() map[string]string {
	labels := map[string]string{"model": o.ModelName}
	if o.sharded() {
		labels["shard"] = strconv.Itoa(o.shard)
	}
	return labels
}

// annParams is the HNSW configuration of annIndex, the one index
// build: BuildShardSnapshots persists the index annIndex builds on its
// engines, so a persisted index is byte-equal to a lazily built one.
func (o Options) annParams() ann.Params {
	return ann.Params{M: o.ANNM, EfSearch: o.ANNEf}
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = perf.NumWorkers()
	}
	if o.ANNM == 0 {
		o.ANNM = 16
	}
	if o.ANNEf == 0 {
		o.ANNEf = 64
	}
	if o.ModelName == "" {
		o.ModelName = defaultModelName
	}
	return o
}

// State is one immutable serving snapshot: a model, its full-graph
// embedding table, and the cosine norms backing the top-K index.
// States are never mutated after publication — hot reload replaces
// the whole snapshot atomically.
type State struct {
	Model *core.Model
	// Version is the engine's swap generation (1 for the first loaded
	// model, incremented per reload). It tags every response and keys
	// the query caches.
	Version uint64
	// ModelVersion is the trained-weights tag carried by the
	// checkpoint (e.g. optimizer steps at save time).
	ModelVersion uint64
	// Emb is the final-layer embedding table: |V| x dim for a
	// whole-graph engine, |owned| x dim for a shard engine (rows in
	// ascending owned-id order): a heap matrix on the cold path, a view
	// into the mapped artifact on the warm path. Either way the rows
	// are exact float64 — every exact answer reads this table, whatever
	// the configured dtype.
	Emb *mat.Dense
	// norms[r] is ||Emb[r]||₂, precomputed for cosine similarity.
	norms []float64

	// quant is the compact table the ANN walk scores rows from at a
	// non-f64 dtype (nil when dtype is f64 — the walk reads Emb there).
	// Its beams are always exact-reranked before leaving the engine.
	quant mat.Quantized
	// dtype is the resident representation this snapshot serves with.
	dtype mat.Dtype
	// art pins the artifact the tables view (nil on a cold start) for
	// the snapshot's lifetime — the views do not pin it themselves; a
	// mapping's unmap happens via finalizer after the last reference to
	// a swapped-out snapshot is collected, so in-flight readers of an
	// old State never race an munmap.
	art *artifact.File

	// total is the graph's full vertex count — the id range queries
	// validate against, which for a shard engine exceeds Emb.Rows.
	total int
	// owned maps local row -> global vertex id for a shard snapshot
	// (ascending, from partition.ShardMap.Owned); nil means the
	// identity mapping of a whole-graph snapshot.
	owned []int32

	// WarmStart reports that Emb/norms (and possibly the index) came
	// from a persisted artifact instead of a fresh full-graph compute.
	WarmStart bool
	// WarmNote records why a configured artifact could not be used
	// (empty when WarmStart is true or no artifact is configured).
	WarmNote string

	// annOnce/annIdx memoize the snapshot's HNSW index: installed
	// eagerly from a warm-start artifact, or built lazily on the first
	// mode=ann query, shared by all subsequent ones, and discarded
	// with the snapshot on reload (the next State brings its own), so
	// a swap can never serve an index over stale embeddings. annIdx is
	// an atomic pointer so a reload can peek at a previous snapshot's
	// built index without racing its builder.
	annOnce sync.Once
	annIdx  atomic.Pointer[ann.Index]
}

// setIndex installs a prebuilt index as the snapshot's memoized one.
// Only meaningful before the first ANN query (the engine calls it
// during snapshot construction); later calls lose to the lazy build.
func (s *State) setIndex(idx *ann.Index) {
	s.annOnce.Do(func() { s.annIdx.Store(idx) })
}

// Dim returns the embedding dimensionality.
func (s *State) Dim() int { return s.Emb.NumCols() }

// Dtype returns the snapshot's resident representation.
func (s *State) Dtype() mat.Dtype { return s.dtype }

// ResidentBytes returns the private working-set size of the serving
// table representation: the f64 table when it is private heap (not
// mapped), the norms, and the quantized codes plus codebooks.
func (s *State) ResidentBytes() int64 {
	n := int64(len(s.norms)) * 8
	if s.MappedBytes() == 0 {
		n += int64(s.Emb.NumRows()) * int64(s.Emb.NumCols()) * 8
	}
	if s.quant != nil {
		n += s.quant.ResidentBytes()
	}
	return n
}

// MappedBytes returns the size of the artifact mapping backing this
// snapshot (0 when the tables are private heap).
func (s *State) MappedBytes() int64 {
	if s.art == nil {
		return 0
	}
	return s.art.MappedBytes()
}

// rowOf maps a global vertex id to its local row, reporting false
// when the snapshot does not hold that vertex (a shard snapshot and a
// foreign id). The caller has already range-checked id against total.
func (s *State) rowOf(id int) (int, bool) {
	if s.owned == nil {
		return id, true
	}
	lo, hi := 0, len(s.owned)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(s.owned[mid]) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.owned) && int(s.owned[lo]) == id {
		return lo, true
	}
	return 0, false
}

// globalID maps a local row back to its global vertex id.
func (s *State) globalID(row int) int {
	if s.owned == nil {
		return row
	}
	return int(s.owned[row])
}

// IndexReady reports whether the snapshot's HNSW index is resident —
// installed from a warm-start artifact or already built by a
// mode=ann query. False means the first ANN query against this
// snapshot will pay the lazy build.
func (s *State) IndexReady() bool { return s.annIdx.Load() != nil }

// Engine is one shard: it owns the snapshot lifecycle (install, warm
// start, hot reload) of its rows and answers from the latest published
// State. A Server runs one per shard and hands each install its
// warm-start source; embedded as a library it is the whole graph,
// warm-starting from Options.ArtifactPath, and its Embed, Predict and
// TopKWith run the same code a Server runs on a shard — point, and the
// probe Server.topK sends each shard — without the Server's admission,
// deadline or memo.
type Engine struct {
	ds   *datasets.Dataset
	opts Options

	// owned is the ascending list of vertex ids this shard engine
	// holds (nil for a whole-graph engine). Fixed at construction: it
	// is a pure function of (shardSeed, shards, shard, |V|).
	owned []int32

	state atomic.Pointer[State]
	swaps atomic.Uint64

	reloadMu sync.Mutex // serializes snapshot construction

	// artPath/artSum/artMeta fingerprint the artifact backing the
	// current warm-started snapshot (guarded by reloadMu): the file it
	// was read from, its stored trailer and its validation target. A
	// reload from the same path whose trailer and target all match
	// reuses the in-memory tables without opening the file; a new path
	// is always read.
	artPath string
	artSum  uint64
	artMeta artifact.Meta
}

// NewEngine wires a whole-graph engine over the dataset's graph and
// features. No model is loaded yet; queries fail until Install or
// LoadCheckpoint succeeds.
func NewEngine(ds *datasets.Dataset, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{ds: ds, opts: opts}
	if opts.sharded() {
		e.owned = opts.shardMap().Owned(ds.G.NumVertices(), opts.shard)
	}
	if opts.Obs != nil {
		e.registerMetrics(opts.Obs)
	}
	return e
}

// errNoModel marks a query that arrived before any model was loaded:
// a server-side condition (503, retryable), not a caller mistake.
var errNoModel = errors.New("serve: no model loaded")

// Snapshot returns the current serving state, or errNoModel when no
// model has been loaded yet.
func (e *Engine) Snapshot() (*State, error) {
	st := e.state.Load()
	if st == nil {
		return nil, errNoModel
	}
	return st, nil
}

// Install computes the full-graph embedding table for m and publishes
// it as the new serving snapshot, returning the new version. In-flight
// queries keep reading the previous snapshot until they finish. The
// engine holds a live reference to m: callers must not keep training
// the installed model — hot reload should Install a fresh model or go
// through LoadCheckpoint, which reconstructs one from disk. A model
// modelFits refuses (core.ErrNonFinite among them) is not installed.
func (e *Engine) Install(m *core.Model) (uint64, error) {
	return e.installShared(m, e.opts.ArtifactPath, sharedTables(m, e.ds, e.opts))
}

// installShared is Install from the warm-start source artPath (empty
// disables the warm path) and the whole-graph tables full (a
// sharedTables memo), which only the cold path calls. A Server
// installing one model across N shard engines passes each its own
// artifact and one memo, so the expensive whole-graph pass happens once
// per fleet install, not once per shard; each engine still keeps only
// its owned rows.
func (e *Engine) installShared(m *core.Model, artPath string, full func() (*mat.Dense, []float64)) (uint64, error) {
	if err := modelFits(m, e.ds); err != nil {
		return 0, err
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	st := e.buildState(m, artPath, full)
	st.Version = e.swaps.Add(1)
	e.state.Store(st)
	return st.Version, nil
}

// buildState produces the next serving snapshot for m (reloadMu
// held): the warm path from artPath when set and valid, the full
// layer-wise compute otherwise. Version is left for the caller.
func (e *Engine) buildState(m *core.Model, artPath string, full func() (*mat.Dense, []float64)) *State {
	var warmNote string
	if artPath != "" {
		st, note := e.warmState(m, artPath)
		if st != nil {
			return st
		}
		warmNote = note
	}
	emb, norms := full()
	if e.opts.sharded() {
		emb, norms = compactRows(emb, norms, e.owned)
	}
	st := e.newState(m, emb, norms)
	st.WarmNote = warmNote
	e.attachPlane(st, nil)
	return st
}

// newState starts the snapshot that serves m from the given tables.
func (e *Engine) newState(m *core.Model, emb *mat.Dense, norms []float64) *State {
	return &State{
		Model:        m,
		ModelVersion: m.ModelVersion,
		Emb:          emb,
		norms:        norms,
		total:        e.ds.G.NumVertices(),
		owned:        e.owned,
	}
}

// attachPlane fills a freshly built snapshot's memory plane: the
// artifact f its tables view (nil on a cold start) and, at a non-f64
// dtype, the quantized table — none for an empty table. The f32/pq
// payload of f is adopted only when it is exactly what the engine would
// train itself — same shape, same resolved parameters — so
// quantization, like every other table, is a pure function of the
// embedding rows however it reaches the process.
func (e *Engine) attachPlane(st *State, f *artifact.File) {
	st.dtype, st.art = e.opts.Dtype, f
	rows, cols := st.Emb.NumRows(), st.Emb.NumCols()
	if rows == 0 || cols == 0 {
		return
	}
	var f32 *mat.F32Table
	var pq *mat.PQTable
	if f != nil {
		f32, pq = f.F32(), f.PQ()
	}
	switch e.opts.Dtype {
	case mat.DtypeF32:
		if f32 != nil && f32.RowsN == rows && f32.ColsN == cols {
			st.quant = f32
		} else {
			st.quant = mat.ToF32(st.Emb, e.opts.Workers)
		}
	case mat.DtypeI8PQ:
		want := mat.ResolvePQ(rows, cols)
		if pq != nil && pq.RowsN == rows && pq.ColsN == cols && pq.Params == want {
			st.quant = pq
		} else {
			st.quant = mat.TrainPQ(st.Emb, want, e.opts.Workers)
		}
	}
}

// compactRows extracts the owned rows (and norms) of a whole-graph
// table into a fresh |owned| x dim table in ascending owned-id order.
func compactRows(emb *mat.Dense, norms []float64, owned []int32) (*mat.Dense, []float64) {
	sub := mat.New(len(owned), emb.Cols)
	subNorms := make([]float64, len(owned))
	for r, gid := range owned {
		copy(sub.Row(r), emb.Row(int(gid)))
		subNorms[r] = norms[gid]
	}
	return sub, subNorms
}

// warmState tries to satisfy an install from the artifact at
// artPath. It returns (nil, reason) on any failure — unreadable or
// corrupt file, or metadata that does not match the model being
// installed and the serving dataset — making the warm path strictly
// opt-in: a wrong artifact can never alter what the engine serves,
// only how fast it comes up. When the file at the previous warm
// snapshot's path still carries that snapshot's trailer and m wants
// the same meta, the tables and any already-built index are reused
// without opening the artifact — they were verified when first read.
// Otherwise the file is opened (mapped, every section CRC-checked) and
// adopted. Because both the embedding compute and the HNSW build are
// bit-deterministic, a warm snapshot is byte-identical to the cold one
// it replaces (test-enforced in warm_test.go).
func (e *Engine) warmState(m *core.Model, artPath string) (*State, string) {
	// Read the trailer before fingerprinting the model: the common
	// no-artifact miss costs one failed open, not a CRC pass over
	// every weight tensor.
	sum, err := artifact.Trailer(artPath)
	if err != nil {
		return nil, err.Error()
	}
	want := e.wantMeta(m)
	if prev := e.state.Load(); prev != nil && prev.WarmStart && artPath == e.artPath && sum == e.artSum && want == e.artMeta {
		st := e.newState(m, prev.Emb, prev.norms)
		st.WarmStart = true
		st.quant, st.dtype, st.art = prev.quant, prev.dtype, prev.art
		if idx := prev.annIdx.Load(); idx != nil {
			st.setIndex(idx)
		}
		return st, ""
	}
	f, err := artifact.Open(artPath)
	if err != nil {
		return nil, err.Error()
	}
	if f.Meta() != want {
		_ = f.Close()
		return nil, fmt.Sprintf("artifact was built for %+v, serving %+v", f.Meta(), want)
	}
	st := e.newState(m, f.Table(), f.Norms())
	st.WarmStart = true
	// A persisted index is installed only when it is the index the lazy
	// path would build (same structural parameters); otherwise the lazy
	// build stays in place — the embeddings are still warm.
	if idx := f.Index(); idx != nil {
		if got, want := idx.Params(), e.opts.annParams().Resolved(); got.M == want.M &&
			got.EfConstruction == want.EfConstruction && got.Seed == want.Seed {
			st.setIndex(idx)
		}
	}
	e.attachPlane(st, f)
	e.artPath, e.artSum, e.artMeta = artPath, f.Sum(), want
	return st, ""
}

// LoadCheckpoint reconstructs a model from a v2 checkpoint file and
// installs it. This is the hot-reload entry point.
func (e *Engine) LoadCheckpoint(path string) (uint64, error) {
	m, err := core.LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	return e.Install(m)
}

// EmbedResult is the answer to an embedding query.
type EmbedResult struct {
	Version      uint64      `json:"version"`
	ModelVersion uint64      `json:"model_version"`
	Dim          int         `json:"dim"`
	IDs          []int       `json:"ids"`
	Vectors      [][]float64 `json:"embeddings"`
}

// PredictResult is the answer to a prediction query.
type PredictResult struct {
	Version      uint64      `json:"version"`
	ModelVersion uint64      `json:"model_version"`
	Classes      int         `json:"classes"`
	MultiLabel   bool        `json:"multi_label"`
	IDs          []int       `json:"ids"`
	Labels       [][]int     `json:"labels"`
	Probs        [][]float64 `json:"probs"`
}

// Neighbor is one entry of a top-K similarity answer.
type Neighbor struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// Top-K query modes. ModeAuto resolves to the engine's configured
// default (ann when Options.ANN is set, exact otherwise).
const (
	ModeAuto  = ""
	ModeExact = "exact"
	ModeANN   = "ann"
)

// TopKResult is the answer to a similar-nodes query. Mode reports how
// the answer was computed — "exact" (full scan) or "ann" (HNSW beam
// search); an ANN request that fell back to the exact scan reports
// "exact". Ef is the beam width used (ann mode only).
type TopKResult struct {
	Version      uint64 `json:"version"`
	ModelVersion uint64 `json:"model_version"`
	ID           int    `json:"id"`
	K            int    `json:"k"`
	Mode         string `json:"mode"`
	Ef           int    `json:"ef,omitempty"`
	// Degraded marks an answer a sharded model assembled while one or
	// more non-owning shards were down: the neighbors listed are exact
	// over the live shards' vertices but vertices of the dead shards
	// could not be considered. Never set on a healthy fleet or a
	// single-engine server, so healthy responses stay byte-identical.
	Degraded  bool       `json:"degraded,omitempty"`
	Neighbors []Neighbor `json:"neighbors"`
}

// checkIDs validates query vertex ids against the snapshot's global
// id range. Ownership (shard engines) is checked by localRows.
func checkIDs(st *State, ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("serve: no ids given")
	}
	for _, id := range ids {
		if id < 0 || id >= st.total {
			return fmt.Errorf("serve: vertex id %d out of range [0,%d)", id, st.total)
		}
	}
	return nil
}

// localRows validates ids and maps them to the snapshot's local rows.
// On a whole-graph snapshot the mapping is the identity (ids is
// returned unchanged, not copied); on a shard snapshot a foreign id
// fails with errNotOwned — the Server is expected to have routed it
// to its owner.
func localRows(st *State, ids []int) ([]int, error) {
	if err := checkIDs(st, ids); err != nil {
		return nil, err
	}
	if st.owned == nil {
		return ids, nil
	}
	rows := make([]int, len(ids))
	for i, id := range ids {
		r, ok := st.rowOf(id)
		if !ok {
			return nil, fmt.Errorf("%w: vertex id %d", errNotOwned, id)
		}
		rows[i] = r
	}
	return rows, nil
}

// predictionsFromLogits writes one logits row per id into res as
// thresholded labels plus calibrated probabilities (sigmoid per class
// when multi, softmax otherwise), row i at position slot(at, i). The
// probabilities of every row share one backing array: each element is
// first the exponent's argument — -z for a sigmoid, z - max for a
// softmax — and one mat.Exp over the whole array turns them into
// math.Exp's values, bit for bit, before the per-row arithmetic.
func predictionsFromLogits(res *PredictResult, at []int, logits *mat.Dense, multi bool) {
	n, k := logits.Rows, logits.Cols
	all := make([]float64, n*k)
	for i := 0; i < n; i++ {
		zrow, probs := logits.Row(i), all[i*k:(i+1)*k:(i+1)*k]
		if multi {
			for j, z := range zrow {
				probs[j] = -z
			}
		} else {
			maxZ := zrow[0]
			for _, z := range zrow {
				if z > maxZ {
					maxZ = z
				}
			}
			for j, z := range zrow {
				probs[j] = z - maxZ
			}
		}
	}
	mat.Exp(all, all)
	for i := 0; i < n; i++ {
		zrow, probs := logits.Row(i), all[i*k:(i+1)*k:(i+1)*k]
		res.Probs[slot(at, i)] = probs
		if multi {
			// Mirrors nn.PredictMulti: class on iff logit > 0.
			labels := make([]int, 0, 1) // non-nil: an empty label set serializes as []
			for j, z := range zrow {
				probs[j] = 1 / (1 + probs[j])
				if z > 0 {
					labels = append(labels, j)
				}
			}
			res.Labels[slot(at, i)] = labels
			continue
		}
		// Mirrors nn.PredictSingle: argmax class, stable softmax.
		best := 0
		for j, z := range zrow {
			if z > zrow[best] {
				best = j
			}
		}
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		for j := range probs {
			probs[j] /= sum
		}
		res.Labels[slot(at, i)] = []int{best}
	}
}

// newPointResult is the answer to a point query for ids — an
// *EmbedResult, or a *PredictResult if predict — before any engine has
// written into it (Engine.point).
func newPointResult(ids []int, predict bool) any {
	if predict {
		return &PredictResult{IDs: ids, Labels: make([][]int, len(ids)), Probs: make([][]float64, len(ids))}
	}
	return &EmbedResult{IDs: ids, Vectors: make([][]float64, len(ids))}
}

// slot is the query position of an engine's i-th id: at[i], or i when
// at is nil.
func slot(at []int, i int) int {
	if at == nil {
		return i
	}
	return at[i]
}

// point answers ids against one snapshot, in place in res, a
// newPointResult answer: ids[i] is the query's id at position
// slot(at, i), at ascending, and its row — an embedding, or labels and
// probabilities — is written there and nowhere else. The engine that
// answers the query's first id writes the header. Nothing is written
// unless every id validates; then one row gather for the ids and, for
// a prediction, one head GEMM. It is the whole of Embed and Predict,
// and what a Server's shard.point runs.
func (e *Engine) point(res any, ids, at []int) error {
	st, err := e.Snapshot()
	if err != nil {
		return err
	}
	rows, err := localRows(st, ids)
	if err != nil {
		return err
	}
	first := at == nil || at[0] == 0
	n, dim := len(rows), st.Dim()
	switch res := res.(type) {
	case *EmbedResult:
		if first {
			res.Version, res.ModelVersion, res.Dim = st.Version, st.ModelVersion, dim
		}
		// The vectors are capped views of one fresh gather, never
		// written again.
		h := make([]float64, n*dim)
		for i, r := range rows {
			v := h[i*dim : (i+1)*dim : (i+1)*dim]
			copy(v, st.Emb.Row(r))
			res.Vectors[slot(at, i)] = v
		}
	case *PredictResult:
		// The gathered rows and the logits are scratch of this one
		// answer: one allocation holds both.
		out, multi := st.Model.Head.OutDim, st.Model.Loss.Name() == "sigmoid-bce"
		if first {
			res.Version, res.ModelVersion, res.Classes, res.MultiLabel = st.Version, st.ModelVersion, out, multi
		}
		buf := make([]float64, n*(dim+out))
		h, logits := mat.FromData(n, dim, buf[:n*dim]), mat.FromData(n, out, buf[n*dim:])
		mat.GatherRows(h, st.Emb, rows)
		st.Model.Head.Apply(logits, h, nil, 1)
		predictionsFromLogits(res, at, logits, multi)
	}
	return nil
}

// Embed answers an embedding query against the latest snapshot with
// the shard code a Server runs (point).
func (e *Engine) Embed(ids []int) (*EmbedResult, error) {
	res := newPointResult(ids, false)
	if err := e.point(res, ids, nil); err != nil {
		return nil, err
	}
	return res.(*EmbedResult), nil
}

// Predict answers a prediction query against the latest snapshot, like
// Embed.
func (e *Engine) Predict(ids []int) (*PredictResult, error) {
	res := newPointResult(ids, true)
	if err := e.point(res, ids, nil); err != nil {
		return nil, err
	}
	return res.(*PredictResult), nil
}

// TopKWith answers a similar-nodes query in the requested mode with the
// code a Server runs on each shard: snapshotRow fetches the query
// vector, planTopK resolves the plan, shardTopK probes the table and
// topkResult builds the answer. ModeExact runs the sharded full scan:
// each row range keeps its k best in an ann.TopK and the ranges merge
// through another, so the answer is deterministic at every Workers
// setting. ModeANN searches the snapshot's HNSW index with beam width
// ef (<= 0 uses the configured default), built lazily on first use;
// when the beam would cover the whole table anyway (ef or k >= |V|-1)
// the query falls back to the exact scan, and the result reports mode
// "exact". Both modes rank by the same total order (descending score,
// ascending id on ties) and both are bit-identical across Workers
// settings, rebuilds and reloads. k must be in [1, |V|-1]. Nothing is
// memoized: the one top-K memo is the Server's.
func (e *Engine) TopKWith(id, k int, mode string, ef int) (*TopKResult, error) {
	st, vec, norm, err := e.snapshotRow(id)
	if err != nil {
		return nil, err
	}
	useANN, known := e.opts.annMode(mode)
	p, err := e.opts.planTopK(topkQuery{id: id, k: k, ann: useANN, ef: ef}, st.total, st.Emb.NumRows())
	if err == nil && !known {
		// The library's own text — a Go caller passed no request
		// "parameter"; a served query never gets here with a bad mode.
		err = fmt.Errorf("serve: unknown topk mode %q (want exact or ann)", mode)
	}
	if err != nil {
		return nil, err
	}
	return topkResult(st, p, false, e.shardTopK(st, vec, norm, p)), nil
}

// topkResult is the one builder of a top-K answer: planned query p,
// answered from snapshot st (the one its query vector came from) with
// the merged neighbors nbs.
func topkResult(st *State, p topkQuery, degraded bool, nbs []Neighbor) *TopKResult {
	res := &TopKResult{
		Version:      st.Version,
		ModelVersion: st.ModelVersion,
		ID:           p.id,
		K:            p.k,
		Mode:         ModeExact,
		Ef:           p.ef,
		Degraded:     degraded,
		Neighbors:    nbs,
	}
	if p.ann {
		res.Mode = ModeANN
	}
	return res
}

// annMode is the one mode switch: whether a query in the given mode
// searches the ANN index (ModeAuto follows the configured default) and
// whether the mode is known at all.
func (o Options) annMode(mode string) (useANN, known bool) {
	switch mode {
	case ModeAuto:
		return o.ANN, true
	case ModeExact:
		return false, true
	case ModeANN:
		return true, true
	}
	return false, false
}

// planTopK is the one resolver of a top-K request's scan plan — the
// rules TopKWith documents — shared by Engine.TopKWith and a Server's
// scatter-gather so their rules and error texts cannot drift. q.ann is
// the request's annMode; total is the graph's vertex count; n is the
// number of table rows the beam is measured against: total, except on
// a shard engine addressed directly. The plan's ef is 0 when it is
// exact.
func (o Options) planTopK(q topkQuery, total, n int) (topkQuery, error) {
	if q.k < 1 {
		return topkQuery{}, fmt.Errorf("serve: k must be >= 1, got %d", q.k)
	}
	if max := total - 1; q.k > max {
		return topkQuery{}, fmt.Errorf("serve: k=%d exceeds the %d other vertices", q.k, max)
	}
	if q.ef <= 0 {
		q.ef = o.ANNEf
	}
	if q.ef < q.k {
		q.ef = q.k
	}
	if !q.ann || beamCoversTable(q.k, q.ef, n) {
		q.ann, q.ef = false, 0
	}
	return q, nil
}

// beamCoversTable is the one ANN-to-exact fallback rule, whole-graph
// plan and shard probe alike: the beam would cover (almost) all n rows,
// so the exact scan is cheaper and, by definition, at least as accurate.
func beamCoversTable(k, ef, n int) bool { return ef >= n-1 || k >= n-1 }

// annIndex returns the snapshot's HNSW index — every dtype's ANN path —
// building it on first use. Concurrent first queries build exactly once;
// losers block until the winner publishes. Construction is deterministic
// (see package ann): every rebuild of a snapshot yields the same structure.
func (e *Engine) annIndex(st *State) *ann.Index {
	st.annOnce.Do(func() {
		st.annIdx.Store(ann.Build(st.Emb, st.norms, e.opts.annParams(), e.opts.Workers))
	})
	return st.annIdx.Load()
}

// annVec runs the snapshot's ANN candidate search for an arbitrary
// query vector, excluding global vertex id exclude (-1 = none), and
// reports the candidates as global ids. Every dtype walks the
// snapshot's HNSW index: an f64 snapshot scores the walk from the exact
// rows, a quantized one from the few hundred rows of the compact table
// the walk visits, and exact-f64 reranks the ef-wide beam — so every
// score returned, whatever the dtype, is bit-equal to the exact
// scanner's score for that row. The search runs over local rows;
// exclusion and results map through the snapshot's owned list.
func (e *Engine) annVec(st *State, q []float64, qn float64, exclude, k, ef int) []Neighbor {
	ex := int32(-1)
	if r, ok := st.rowOf(exclude); ok {
		ex = int32(r)
	}
	var cands []ann.Candidate
	if idx := e.annIndex(st); st.quant != nil {
		cands = ann.RerankExact(st.Emb, st.norms, q, qn, idx.SearchQuant(st.quant, q, qn, ef, ex), k)
	} else {
		cands = idx.Search(q, qn, k, ef, ex)
	}
	nbs := make([]Neighbor, len(cands))
	for i, c := range cands {
		nbs[i] = Neighbor{ID: st.globalID(int(c.ID)), Score: c.Score}
	}
	return nbs
}

// scanVec runs the worker-sharded exact scan of the snapshot's table
// against an arbitrary query vector, excluding global vertex id
// exclude (-1 = none). Each contiguous row range selects its k best
// and the ranges merge through the same selector, so the list is
// bit-identical at every workers setting — and, because candidates
// carry global ids, a scatter over N shard engines merges into
// exactly the whole-graph answer.
func scanVec(st *State, q []float64, qn float64, exclude, k, workers int) []Neighbor {
	n := st.Emb.NumRows()
	shards := workers
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	parts := make([][]Neighbor, shards)
	perf.Parallel(shards, workers, func(_, slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * n / shards
			hi := (s + 1) * n / shards
			tk := ann.NewTopK(k)
			for r := lo; r < hi; r++ {
				gid := st.globalID(r)
				if gid == exclude {
					continue
				}
				score := 0.0
				if d := qn * st.norms[r]; d > 0 {
					score = mat.Dot(q, st.Emb.Row(r)) / d
				}
				tk.Offer(int32(gid), score)
			}
			parts[s] = neighbors(tk)
		}
	})
	return mergeTopK(parts, k)
}

// neighbors is a selector's content as an answer's neighbor list, best
// first.
func neighbors(tk *ann.TopK) []Neighbor {
	cands := tk.Sorted()
	nbs := make([]Neighbor, len(cands))
	for i, c := range cands {
		nbs[i] = Neighbor{ID: int(c.ID), Score: c.Score}
	}
	return nbs
}

// mergeTopK selects the k best of several candidate lists over
// disjoint ids — row ranges of one scan, or shards of a fleet.
func mergeTopK(parts [][]Neighbor, k int) []Neighbor {
	if len(parts) == 1 {
		return parts[0]
	}
	final := ann.NewTopK(k)
	for _, part := range parts {
		for _, nb := range part {
			final.Offer(int32(nb.ID), nb.Score)
		}
	}
	return neighbors(final)
}

// snapshotRow resolves the current snapshot and the embedding row and
// norm of an owned vertex — how a top-K query fetches its query vector
// from the shard that owns it.
func (e *Engine) snapshotRow(id int) (*State, []float64, float64, error) {
	st, err := e.Snapshot()
	if err != nil {
		return nil, nil, 0, err
	}
	if err := checkIDs(st, []int{id}); err != nil {
		return nil, nil, 0, err
	}
	row, ok := st.rowOf(id)
	if !ok {
		return nil, nil, 0, fmt.Errorf("%w: vertex id %d", errNotOwned, id)
	}
	return st, st.Emb.Row(row), st.norms[row], nil
}

// shardTopK answers one probe of planned query p: the p.k best
// candidates of snapshot st, one of this engine's, for the supplied
// query vector, as global ids, p.id excluded. In ANN mode the
// snapshot's HNSW index is searched unless the beam would cover the
// local table anyway (beamCoversTable, the rule planTopK applied to
// the whole graph).
func (e *Engine) shardTopK(st *State, q []float64, qn float64, p topkQuery) []Neighbor {
	if p.ann && !beamCoversTable(p.k, p.ef, st.Emb.NumRows()) {
		return e.annVec(st, q, qn, p.id, p.k, p.ef)
	}
	return scanVec(st, q, qn, p.id, p.k, e.opts.Workers)
}
