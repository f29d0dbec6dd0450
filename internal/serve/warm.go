package serve

import (
	"fmt"
	"math"
	"sync"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// wantMeta returns the Meta an artifact must carry to stand in for
// this engine's cold install of m — the Meta BuildShardSnapshots
// writes: the model's architecture fingerprint, a content hash of its
// trained weights (ModelVersion alone is a step count — two trainings
// can collide on it) and the dataset's graph shape, plus the shard
// identity and owned-row count when the engine serves one shard of a
// fleet. Embeddings are a pure function of (weights, graph, features),
// so equality of this struct is the precondition for serving persisted
// tables, and a shard engine only ever adopts the artifact built for
// exactly its shard under exactly its seed.
func (e *Engine) wantMeta(m *core.Model) artifact.Meta {
	want := artifact.Meta{
		Arch:       m.ArchMeta(),
		WeightsSum: m.WeightsChecksum(),
		Vertices:   e.ds.G.NumVertices(),
		Edges:      e.ds.G.NumEdges(),
		FeatureDim: e.ds.FeatureDim(),
		Dim:        m.EmbeddingDim(),
	}
	if e.opts.sharded() {
		want.Shards, want.Shard, want.ShardSeed = e.opts.shards, e.opts.shard, e.opts.shardSeed
		want.ShardRows = len(e.owned)
	}
	return want
}

// sharedTables memoizes one install's whole-graph tables: the first
// engine of the install that computes cold runs computeTables, every
// other one compacts its owned rows from the same tables. Server.install,
// Engine.Install and BuildShardSnapshots each take one per install.
func sharedTables(m *core.Model, ds *datasets.Dataset, opts Options) func() (*mat.Dense, []float64) {
	return sync.OnceValues(func() (*mat.Dense, []float64) { return computeTables(m, ds, opts) })
}

// computeTables runs the cold-start table computation for (m, ds):
// the full-graph embedding pass plus per-vertex cosine norms. Every
// cold install reaches it through sharedTables, gsgcn-index's included
// (BuildShardSnapshots installs cold on one engine per shard), so an
// artifact is bit-identical to a fresh compute by construction. The
// pass streams 256-vertex blocks; the block size never changes a bit.
func computeTables(m *core.Model, ds *datasets.Dataset, opts Options) (*mat.Dense, []float64) {
	emb := m.FullEmbeddings(ds.G, ds.Features, opts.Workers, 256)
	norms := make([]float64, emb.Rows)
	perf.ParallelMin(emb.Rows, 64, opts.Workers, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := emb.Row(v)
			norms[v] = math.Sqrt(mat.Dot(row, row))
		}
	})
	return emb, norms
}

// modelFits checks that m's input and output widths are the dataset's
// feature and class counts and that every weight is finite
// (core.ErrNonFinite otherwise) — the one way a model can fail to
// install.
func modelFits(m *core.Model, ds *datasets.Dataset) error {
	if got, want := m.Layers[0].InDim, ds.FeatureDim(); got != want {
		return fmt.Errorf("serve: model expects %d input features, dataset has %d", got, want)
	}
	if got, want := m.Head.OutDim, ds.NumClasses; got != want {
		return fmt.Errorf("serve: model predicts %d classes, dataset has %d", got, want)
	}
	return m.CheckFinite()
}

// BuildSnapshot computes the serving tables offline — the cold
// install a whole-graph Engine runs — and packages them as an artifact
// snapshot: the full-graph embedding table, its cosine norms, the
// dtype payload the options select and, when withIndex is set, the
// deterministic HNSW index the engine's lazy path would build. Both
// computations are bit-deterministic, so a snapshot written by
// cmd/gsgcn-index and loaded by a server is byte-equal to what that
// server would have computed itself.
func BuildSnapshot(ds *datasets.Dataset, m *core.Model, opts Options, withIndex bool) (*artifact.Snapshot, error) {
	snaps, err := BuildShardSnapshots(ds, m, opts, withIndex, 1, 0)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// BuildShardSnapshots computes the per-shard serving artifacts of a
// model by installing it cold on one Engine per shard, sharing one
// whole-graph table pass as a Server's install does, and writing each
// engine's State out: its owned rows and norms, the payload attachPlane
// trained (none, so f64, for an empty table), the index annIndex builds
// when withIndex is set and the meta wantMeta returns. Every shard
// artifact is therefore byte-equal to what that shard would have
// computed itself. A fleet of one is the whole-graph engine:
// BuildSnapshot's artifact.
func BuildShardSnapshots(ds *datasets.Dataset, m *core.Model, opts Options, withIndex bool, shards int, shardSeed uint64) ([]*artifact.Snapshot, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: shard count must be >= 1, got %d", shards)
	}
	opts = opts.withDefaults()
	// The builder's engines report into no caller's registry and never
	// warm from an artifact.
	opts.Obs, opts.ArtifactPath = nil, ""
	opts.shards, opts.shardSeed = shards, shardSeed
	full := sharedTables(m, ds, opts)
	out := make([]*artifact.Snapshot, shards)
	for i := range out {
		opts.shard = i
		e := NewEngine(ds, opts)
		if _, err := e.installShared(m, "", full); err != nil {
			return nil, err
		}
		st := e.state.Load()
		snap := &artifact.Snapshot{Meta: e.wantMeta(m), Emb: st.Emb, Norms: st.norms}
		if st.quant != nil {
			snap.Dtype = st.dtype
			snap.F32, _ = st.quant.(*mat.F32Table)
			snap.PQ, _ = st.quant.(*mat.PQTable)
		}
		if withIndex {
			snap.Index = e.annIndex(st)
		}
		out[i] = snap
	}
	return out, nil
}
