// Package gsgcn is the public API of the graph-sampling GCN library,
// a reproduction of "Accurate, Efficient and Scalable Graph
// Embedding" (Zeng, Zhou, Srivastava, Kannan, Prasanna — IPDPS 2019).
//
// The library trains graph convolutional networks by sampling small
// induced subgraphs and building a complete GCN on each one, avoiding
// the neighbor explosion of layer-sampling methods. It bundles:
//
//   - the Dashboard-based parallel frontier sampler (paper §IV),
//   - cache-aware feature-partitioned propagation (paper §V),
//   - the subgraph-pool training scheduler (Algorithm 5),
//   - the comparators of the paper's evaluation (GraphSAGE-style
//     layer sampling, full-batch GCN) as batching policies over the
//     same model,
//   - synthetic dataset presets matching the paper's Table I, and
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation (see RunExperiment).
//
// Quickstart:
//
//	ds, _ := gsgcn.LoadPreset("ppi", 0.05, 0)
//	model := gsgcn.NewModel(ds, gsgcn.Config{Layers: 2, Hidden: 128})
//	tr := gsgcn.NewTrainer(ds, model)
//	for epoch := 0; epoch < 10; epoch++ {
//	    loss := tr.Epoch()
//	    f1 := tr.Evaluate(ds.ValIdx)
//	    fmt.Printf("epoch %d: loss %.4f val-F1 %.4f\n", epoch, loss, f1)
//	}
package gsgcn

import (
	"fmt"
	"io"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/obs"
	"gsgcn/internal/sampler"
	"gsgcn/internal/serve"
)

// Re-exported core types. The aliases give downstream users a single
// import while keeping implementation packages internal.
type (
	// Dataset is an attributed, labeled graph with train/val/test splits.
	Dataset = datasets.Dataset
	// DatasetConfig parameterizes synthetic dataset generation.
	DatasetConfig = datasets.Config
	// Config parameterizes model architecture and training.
	Config = core.Config
	// Model is an L-layer graph-sampling GCN.
	Model = core.Model
	// Trainer drives minibatch training via the subgraph pool.
	Trainer = core.Trainer
	// Graph is an undirected CSR graph.
	Graph = graph.CSR
	// Subgraph is a vertex-induced subgraph with original-id mapping.
	Subgraph = graph.Subgraph
	// VertexSampler draws vertex sets for minibatch subgraphs.
	VertexSampler = sampler.VertexSampler
	// FrontierSampler is the paper's Dashboard-based frontier sampler.
	FrontierSampler = sampler.Frontier
	// ServeOptions parameterizes the online inference subsystem.
	ServeOptions = serve.Options
	// InferenceEngine computes and serves full-graph embeddings from a
	// checkpointed model, with atomic hot reload.
	InferenceEngine = serve.Engine
	// InferenceServer serves one model over HTTP (admission control,
	// deadlines, /embed /predict /topk /healthz /reload): N >= 1 shard
	// InferenceEngines behind one request layer. NewInferenceServer
	// builds the unsharded fleet of one, NewShardedServer the same type
	// over several vertex shards — it then also serves the /shards
	// operations — with exact-mode answers byte-identical at every
	// shard count.
	InferenceServer = serve.Server
	// ModelRegistry serves several independent models from one process:
	// each registered model is a full InferenceServer, sharded or not,
	// reached as /models/{name}/…, with the unprefixed routes answering
	// from a configured default model. See docs/API.md for the HTTP
	// surface.
	ModelRegistry = serve.Registry
	// ServingArtifact is a snapshot artifact as it is written:
	// precomputed full-graph embedding table, norms and (optionally)
	// the deterministic HNSW index, with the metadata to validate them
	// against a checkpoint and dataset.
	ServingArtifact = artifact.Snapshot
	// ServingArtifactFile is a validated artifact file as it is read:
	// the same tables as views into the file's bytes.
	ServingArtifactFile = artifact.File
	// ArtifactMeta identifies what a serving artifact was computed from.
	ArtifactMeta = artifact.Meta
	// MetricsRegistry is the observability plane's metric store:
	// atomic counters, gauges and fixed-bucket histograms rendered in
	// Prometheus text exposition format (served at /metrics). Every
	// model in a ModelRegistry reports into one shared instance.
	MetricsRegistry = obs.Registry
	// StructuredLogger emits JSON-line logs with a process-wide
	// monotonic request-id sequence; wire one into a ModelRegistry
	// with SetAccessLog for per-request access logging.
	StructuredLogger = obs.Logger
	// LogField is one key/value pair of a structured log line.
	LogField = obs.Field
	// ServingDtype selects the resident representation of the serving
	// embedding table (ServeOptions.Dtype): exact answers always read
	// float64 rows regardless of dtype; quantized tables only steer the
	// ANN candidate scan, whose beam is reranked with exact scores.
	ServingDtype = mat.Dtype
)

// The resident representations a serving table can hold.
const (
	// ServingDtypeF64 is the full-precision table (the default).
	ServingDtypeF64 = mat.DtypeF64
	// ServingDtypeF32 adds a half-size float32 copy for ANN scans.
	ServingDtypeF32 = mat.DtypeF32
	// ServingDtypeI8PQ adds an int8 product-quantized codebook —
	// ~one byte per two table columns — for ANN scans.
	ServingDtypeI8PQ = mat.DtypeI8PQ
)

// ParseServingDtype parses a dtype name as the CLIs spell it:
// "f64", "f32" or "i8pq" ("" = f64).
func ParseServingDtype(s string) (ServingDtype, error) { return mat.ParseDtype(s) }

// BuildServingArtifact computes the serving tables for (ds, m) offline
// — exactly the arithmetic a cold server start would run — so they can
// be persisted with WriteServingArtifact and warm-loaded later via
// ServeOptions.ArtifactPath. withIndex additionally builds the
// deterministic HNSW index with the parameters opts implies.
func BuildServingArtifact(ds *Dataset, m *Model, opts ServeOptions, withIndex bool) (*ServingArtifact, error) {
	return serve.BuildSnapshot(ds, m, opts, withIndex)
}

// BuildShardServingArtifacts computes the per-shard artifacts of an
// N-shard serving fleet: one whole-graph table pass, compacted to
// each shard's seed-keyed owned rows, each with its own HNSW index
// when withIndex is set. Write shard i's snapshot to
// ShardArtifactPath(base, i, shards) for a sharded server started
// with ServeOptions.ArtifactPath = base to warm-start from.
func BuildShardServingArtifacts(ds *Dataset, m *Model, opts ServeOptions, withIndex bool, shards int, shardSeed uint64) ([]*ServingArtifact, error) {
	return serve.BuildShardSnapshots(ds, m, opts, withIndex, shards, shardSeed)
}

// ShardArtifactPath is the conventional file path of one shard's
// artifact under a fleet-wide base path: <base>.s<i>of<N>.
func ShardArtifactPath(base string, shard, shards int) string {
	return artifact.ShardPath(base, shard, shards)
}

// WriteServingArtifact atomically writes a serving artifact to path
// and returns its CRC-64/ECMA checksum.
func WriteServingArtifact(path string, s *ServingArtifact) (uint64, error) {
	return artifact.WriteFile(path, s)
}

// WriteArtifactManifest writes the human-readable JSON sidecar next to
// a just-written artifact and returns the manifest path.
func WriteArtifactManifest(artifactPath, checkpointPath string, s *ServingArtifact, checksum uint64) (string, error) {
	return artifact.WriteManifest(artifactPath, checkpointPath, s, checksum)
}

// ReadServingArtifact maps the artifact at path and checks every
// section CRC; Sum is its stored trailer, read as an identity.
func ReadServingArtifact(path string) (*ServingArtifactFile, error) {
	return artifact.Open(path)
}

// LoadPreset generates a synthetic dataset matching one of the
// paper's Table I presets ("ppi", "reddit", "yelp", "amazon"), with
// vertex and edge budgets multiplied by scale (1 = full size). A
// non-zero seed overrides the preset's default.
func LoadPreset(name string, scale float64, seed uint64) (*Dataset, error) {
	cfg, err := datasets.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return datasets.Generate(cfg), nil
}

// GenerateDataset builds a synthetic dataset from an explicit config.
func GenerateDataset(cfg DatasetConfig) *Dataset { return datasets.Generate(cfg) }

// WriteDataset serializes a dataset to path in the text .gsg format.
func WriteDataset(ds *Dataset, path string) error { return datasets.WriteFile(ds, path) }

// ReadDataset parses a dataset previously written by WriteDataset.
func ReadDataset(path string) (*Dataset, error) { return datasets.ReadFile(path) }

// PresetNames lists the available dataset presets in Table I order.
func PresetNames() []string { return datasets.PresetNames() }

// NewModel constructs a graph-sampling GCN shaped for the dataset.
func NewModel(ds *Dataset, cfg Config) *Model { return core.NewModel(ds, cfg) }

// LoadModel reconstructs a model from a format-v2 checkpoint stream —
// architecture metadata plus weights — without the training dataset.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// LoadModelFile is LoadModel over a checkpoint file.
func LoadModelFile(path string) (*Model, error) { return core.LoadModelFile(path) }

// NewInferenceEngine wires an online inference engine over the
// dataset's graph and features; Install or LoadCheckpoint publishes a
// model before queries can be answered.
func NewInferenceEngine(ds *Dataset, opts ServeOptions) *InferenceEngine {
	return serve.NewEngine(ds, opts)
}

// NewInferenceServer builds the HTTP serving layer over ds.
// Call Load with a checkpoint path, then mount it as an http.Handler.
func NewInferenceServer(ds *Dataset, opts ServeOptions) *InferenceServer {
	return serve.NewServer(ds, opts)
}

// NewShardedServer builds an InferenceServer over ds split across
// shards engines, each owning a deterministic, seed-keyed subset of
// the vertices, behind scatter-gather routing. Call Load with a
// checkpoint path, then mount it as an http.Handler (or register it in
// a ModelRegistry with AddSharded).
func NewShardedServer(ds *Dataset, opts ServeOptions, shards int, seed uint64) (*InferenceServer, error) {
	return serve.NewRouter(ds, opts, shards, seed)
}

// NewModelRegistry returns an empty multi-model serving registry.
// Register models with Add (models given the same *Dataset share its
// one in-memory graph), pick a default, and mount the registry as an
// http.Handler.
func NewModelRegistry() *ModelRegistry { return serve.NewRegistry() }

// NewMetricsRegistry returns an empty metrics registry — for training
// or embedding use; serving code normally uses the registry a
// ModelRegistry creates itself (ModelRegistry.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewStructuredLogger returns a logger writing JSON lines to w.
func NewStructuredLogger(w io.Writer) *StructuredLogger { return obs.NewLogger(w) }

// Log builds one field of a structured log line.
func Log(key string, val any) LogField { return obs.F(key, val) }

// DurationBuckets are histogram bounds suited to long-running work
// (training epochs, index builds): 0.1s to 10 minutes.
var DurationBuckets = obs.DurationBuckets

// NewTrainer wires a trainer using the Dashboard frontier sampler.
func NewTrainer(ds *Dataset, m *Model) *Trainer { return core.NewTrainer(ds, m) }

// NewTrainerWithSampler wires a trainer around a custom sampler — the
// hook for studying alternative graph-sampling algorithms (the
// paper's stated future work).
func NewTrainerWithSampler(ds *Dataset, m *Model, s VertexSampler) *Trainer {
	return core.NewTrainerWithSampler(ds, m, s)
}

// NewFrontierSampler returns the paper's Dashboard frontier sampler
// over g with frontier size m and vertex budget n.
func NewFrontierSampler(g *Graph, m, n int) *FrontierSampler {
	return &sampler.Frontier{G: g, M: m, N: n, Eta: 2}
}

// Sample draws one induced subgraph from g using s with the given
// seed.
func Sample(g *Graph, s VertexSampler, seed uint64) *Subgraph {
	return sampler.SampleSubgraph(g, s, rngFor(seed))
}

// Samplers returns the full family of vertex samplers configured for
// graph g with the given budget, keyed by name.
func Samplers(g *Graph, budget int) map[string]VertexSampler {
	m := budget / 8
	if m < 1 {
		m = 1
	}
	return map[string]VertexSampler{
		"frontier":     &sampler.Frontier{G: g, M: m, N: budget, Eta: 2},
		"random-node":  &sampler.RandomNode{G: g, Budget: budget},
		"random-edge":  &sampler.RandomEdge{G: g, Budget: budget},
		"random-walk":  &sampler.RandomWalk{G: g, Walkers: budget / 10, Depth: 9},
		"forest-fire":  &sampler.ForestFire{G: g, Budget: budget},
		"node2vec":     &sampler.Node2VecWalk{G: g, Walkers: budget / 10, Depth: 9, P: 1, Q: 0.5},
		"edge-induced": &sampler.EdgeInduced{G: g, Edges: budget / 2},
	}
}

// Version identifies the library release.
const Version = "1.0.0"

// About returns a one-line description for CLI banners.
func About() string {
	return fmt.Sprintf("gsgcn %s — graph-sampling GCN (IPDPS'19 reproduction)", Version)
}
