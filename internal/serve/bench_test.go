package serve

import (
	"path/filepath"
	"testing"

	"gsgcn/internal/artifact"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
)

// BenchmarkTopKAnnVsExact tracks the speedup of the HNSW index over
// the exact sharded scan on a Table-I-shaped graph: the exact path is
// O(|V|) dot products per query, the ANN path visits only the beam's
// neighborhood. Both sub-benchmarks call Engine.TopKWith, which
// memoizes nothing, so the numbers are per-scan, and the ann case
// reports its recall@10 against the exact scanner so the speedup is
// never read without its accuracy.
func BenchmarkTopKAnnVsExact(b *testing.B) {
	ds := datasets.Generate(datasets.Config{
		Name: "topk-bench", Vertices: 6000, TargetEdges: 48000,
		FeatureDim: 32, NumClasses: 8, Seed: 7,
	})
	m := testModel(b, ds, 2)
	eng := NewEngine(ds, Options{})
	if _, err := eng.Install(m); err != nil {
		b.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	n := st.Emb.NumRows()

	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.TopKWith(i%n, k, ModeExact, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ann", func(b *testing.B) {
		idx := eng.annIndex(st) // build outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.TopKWith(i%n, k, ModeANN, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		queries := make([]int32, 0, 50)
		for q := 0; q < n; q += n / 50 {
			queries = append(queries, int32(q))
		}
		rep := idx.RecallAtK(queries, k, 0)
		b.ReportMetric(rep.Recall, "recall@10")
	})
}

// BenchmarkWarmVsColdStart prices the artifact fast path on a
// >= 2k-vertex graph: cold is what a freshly launched server pays
// today — the full layer-wise embedding recompute plus an HNSW build —
// while warm reads, checksums and decodes a persisted artifact
// (cmd/gsgcn-index output) through the engine's real install path.
// Each iteration uses a fresh engine, so the warm case never hits the
// reload reuse shortcut: it measures a true process cold boot.
func BenchmarkWarmVsColdStart(b *testing.B) {
	ds := datasets.Generate(datasets.Config{
		Name: "warm-bench", Vertices: 2000, TargetEdges: 16000,
		FeatureDim: 32, NumClasses: 8, Seed: 7,
	})
	m := testModel(b, ds, 2)
	snap, err := BuildSnapshot(ds, m, Options{}, true)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "m.art")
	if _, err := artifact.WriteFile(path, snap); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewEngine(ds, Options{ANN: true})
			if _, err := eng.Install(m); err != nil {
				b.Fatal(err)
			}
			st, _ := eng.Snapshot()
			if eng.annIndex(st) == nil {
				b.Fatal("no index")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := NewEngine(ds, Options{ANN: true, ArtifactPath: path})
			if _, err := eng.Install(m); err != nil {
				b.Fatal(err)
			}
			st, _ := eng.Snapshot()
			if !st.WarmStart || st.annIdx.Load() == nil {
				b.Fatal("warm start did not engage")
			}
		}
	})
}

// BenchmarkWarmStart prices a warm start on a >= 2k-vertex i8pq
// artifact: the file is mapped and every section CRC-checked, through
// the engine's real install path with a fresh engine per iteration.
// It reports the private working set the snapshot ends up holding, so
// the latency is read next to the memory.
func BenchmarkWarmStart(b *testing.B) {
	ds := datasets.Generate(datasets.Config{
		Name: "warm-bench", Vertices: 2000, TargetEdges: 16000,
		FeatureDim: 32, NumClasses: 8, Seed: 7,
	})
	m := testModel(b, ds, 2)
	snap, err := BuildSnapshot(ds, m, Options{Dtype: mat.DtypeI8PQ}, true)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "m.art")
	if _, err := artifact.WriteFile(path, snap); err != nil {
		b.Fatal(err)
	}

	var resident int64
	for i := 0; i < b.N; i++ {
		eng := NewEngine(ds, Options{ANN: true, ArtifactPath: path, Dtype: mat.DtypeI8PQ})
		if _, err := eng.Install(m); err != nil {
			b.Fatal(err)
		}
		st, _ := eng.Snapshot()
		if !st.WarmStart {
			b.Fatalf("warm start did not engage: %s", st.WarmNote)
		}
		resident = st.ResidentBytes()
	}
	b.ReportMetric(float64(resident), "resident_bytes")
}

// BenchmarkFullEmbeddings tracks the cost of one full-graph
// layer-wise inference pass — the price of a hot reload.
func BenchmarkFullEmbeddings(b *testing.B) {
	ds := datasets.Generate(datasets.Config{
		Name: "serve-bench", Vertices: 2000, TargetEdges: 16000,
		FeatureDim: 32, NumClasses: 8, Seed: 7,
	})
	m := testModel(b, ds, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FullEmbeddings(ds.G, ds.Features, 0, 256)
	}
}
