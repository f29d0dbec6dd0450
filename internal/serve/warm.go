package serve

import (
	"fmt"
	"math"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
)

// artifactMetaFor returns the Meta an artifact must carry to stand in
// for a fresh compute over (m, ds): the model's architecture
// fingerprint, a content hash of its trained weights (ModelVersion
// alone is a step count — two trainings can collide on it), and the
// dataset's graph shape. Embeddings are a pure function of (weights,
// graph, features), so equality of this struct is the precondition
// for serving persisted tables.
func artifactMetaFor(m *core.Model, ds *datasets.Dataset) artifact.Meta {
	return artifact.Meta{
		Arch:       m.ArchMeta(),
		WeightsSum: m.WeightsChecksum(),
		Vertices:   ds.G.NumVertices(),
		Edges:      ds.G.NumEdges(),
		FeatureDim: ds.FeatureDim(),
		Dim:        m.EmbeddingDim(),
	}
}

// wantMeta returns the Meta an artifact must carry to warm this
// engine: the whole-graph meta, extended with the shard identity and
// owned-row count when the engine serves one shard of a fleet — a
// shard engine only ever adopts the artifact built for exactly its
// shard under exactly its seed.
func (e *Engine) wantMeta(m *core.Model) artifact.Meta {
	want := artifactMetaFor(m, e.ds)
	if e.opts.sharded() {
		want.Shards = e.opts.shards
		want.Shard = e.opts.shard
		want.ShardSeed = e.opts.shardSeed
		want.ShardRows = len(e.owned)
	}
	return want
}

// computeTables runs the cold-start table computation for (m, ds):
// the full-graph embedding pass plus per-vertex cosine norms. It is
// the single implementation behind both Engine.buildState (online
// cold start) and BuildSnapshot (offline artifact production) — the
// warm-start contract that artifacts are bit-identical to a fresh
// compute holds only while both call exactly this code. The pass
// streams 256-vertex blocks; the block size never changes a bit.
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

// BuildSnapshot computes the serving tables offline — exactly the
// arithmetic Engine.Install runs on a cold start — and packages them
// as an artifact snapshot: the full-graph embedding table, its cosine
// norms and, when withIndex is set, the deterministic HNSW index
// built with the same parameters the engine's lazy path would use.
// Both computations are bit-deterministic, so a snapshot written by
// cmd/gsgcn-index and loaded by a server is byte-equal to what that
// server would have computed itself.
func BuildSnapshot(ds *datasets.Dataset, m *core.Model, opts Options, withIndex bool) (*artifact.Snapshot, error) {
	snaps, err := BuildShardSnapshots(ds, m, opts, withIndex, 1, 0)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// quantizeSnapshot attaches the dtype payload the options select to a
// freshly built artifact snapshot: the f32 table or the PQ codebook
// and codes, trained with exactly the parameters a serving engine
// resolves for the same shape — which is what lets the engine adopt
// the persisted payload instead of re-deriving it.
func quantizeSnapshot(snap *artifact.Snapshot, opts Options) {
	snap.Dtype = opts.Dtype
	rows, cols := snap.Emb.Rows, snap.Emb.Cols
	if rows == 0 || cols == 0 {
		snap.Dtype = mat.DtypeF64
		return
	}
	switch opts.Dtype {
	case mat.DtypeF32:
		snap.F32 = mat.ToF32(snap.Emb, opts.Workers)
	case mat.DtypeI8PQ:
		snap.PQ = mat.TrainPQ(snap.Emb, mat.ResolvePQ(rows, cols), opts.Workers)
	}
}

// BuildShardSnapshots computes the per-shard serving artifacts of a
// model: one whole-graph table pass (the expensive part runs once, not
// once per shard), compacted to each shard's owned rows in ascending
// owned-id order — exactly the compaction a shard engine's cold start
// performs, so every shard artifact is byte-equal to what that shard
// would have computed itself. With withIndex, each shard additionally
// gets the deterministic HNSW index over its own rows (the index a
// shard engine's lazy ann path would build). A fleet of one keeps the
// whole-graph table and the unsharded meta: BuildSnapshot's artifact.
func BuildShardSnapshots(ds *datasets.Dataset, m *core.Model, opts Options, withIndex bool, shards int, shardSeed uint64) ([]*artifact.Snapshot, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: shard count must be >= 1, got %d", shards)
	}
	if err := modelFits(m, ds); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	emb, norms := computeTables(m, ds, opts)
	sm := partition.ShardMap{Shards: shards, Seed: shardSeed}
	out := make([]*artifact.Snapshot, shards)
	for i := range out {
		snap := &artifact.Snapshot{Meta: artifactMetaFor(m, ds), Emb: emb, Norms: norms}
		if shards > 1 {
			owned := sm.Owned(ds.G.NumVertices(), i)
			snap.Emb, snap.Norms = compactRows(emb, norms, owned)
			snap.Meta.Shards = shards
			snap.Meta.Shard = i
			snap.Meta.ShardSeed = shardSeed
			snap.Meta.ShardRows = len(owned)
		}
		if withIndex {
			snap.Index = ann.Build(snap.Emb, snap.Norms, opts.annParams(), opts.Workers)
		}
		// Each shard trains its own codebook over its own rows — the
		// same per-shard quantization a shard engine derives in
		// process, so the payload is adoptable shard by shard.
		quantizeSnapshot(snap, opts)
		out[i] = snap
	}
	return out, nil
}
