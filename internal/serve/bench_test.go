package serve

import (
	"path/filepath"
	"testing"

	"gsgcn/internal/artifact"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
)

// topkBenchEngines installs one untrained 2-layer model on a
// Table-I-shaped 6 000-vertex graph twice: on an f64 engine and on an
// i8pq one. It is the graph of BenchmarkTopKAnnVsExact and of
// TestTopKAnnAllocations' ceiling.
func topkBenchEngines(tb testing.TB) (f64, i8pq *Engine, n int) {
	tb.Helper()
	ds := datasets.Generate(datasets.Config{
		Name: "topk-bench", Vertices: 6000, TargetEdges: 48000,
		FeatureDim: 32, NumClasses: 8, Seed: 7,
	})
	m := testModel(tb, ds, 2)
	f64, i8pq = NewEngine(ds, Options{}), NewEngine(ds, Options{Dtype: mat.DtypeI8PQ})
	for _, eng := range []*Engine{f64, i8pq} {
		if _, err := eng.Install(m); err != nil {
			tb.Fatal(err)
		}
	}
	return f64, i8pq, ds.G.N
}

// BenchmarkTopKAnnVsExact tracks the speedup of the HNSW index over
// the exact sharded scan on a Table-I-shaped graph: the exact path is
// O(|V|) dot products per query, the ANN path visits only the beam's
// neighborhood, on the f64 rows and steered by the i8pq table. Every
// sub-benchmark calls Engine.TopKWith, which memoizes nothing, so the
// numbers are per-scan, and the ann cases report their recall@10
// against the exact scanner so the speedup is never read without its
// accuracy.
func BenchmarkTopKAnnVsExact(b *testing.B) {
	eng, engPQ, n := topkBenchEngines(b)
	const k = 10

	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.TopKWith(i%n, k, ModeExact, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	queries := make([]int, 0, 50)
	for q := 0; q < n; q += n / 50 {
		queries = append(queries, q)
	}
	for name, e := range map[string]*Engine{"ann": eng, "ann-i8pq": engPQ} {
		b.Run(name, func(b *testing.B) {
			if _, err := e.TopKWith(0, k, ModeANN, 0); err != nil { // build outside the timed region
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.TopKWith(i%n, k, ModeANN, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(topkRecall(b, eng, e, queries, k), "recall@10")
		})
	}
}

// topkRecall is the share of the exact top-k neighbours of queries
// that ann's ANN answers hold.
func topkRecall(tb testing.TB, exact, ann *Engine, queries []int, k int) float64 {
	hits, want := 0, 0
	for _, q := range queries {
		ex, err := exact.TopKWith(q, k, ModeExact, 0)
		if err != nil {
			tb.Fatal(err)
		}
		got, err := ann.TopKWith(q, k, ModeANN, 0)
		if err != nil {
			tb.Fatal(err)
		}
		in := make(map[int]bool, len(got.Neighbors))
		for _, nb := range got.Neighbors {
			in[nb.ID] = true
		}
		for _, nb := range ex.Neighbors {
			if in[nb.ID] {
				hits++
			}
		}
		want += len(ex.Neighbors)
	}
	return float64(hits) / float64(want)
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool

// TestTopKAnnAllocations holds a warmed ANN top-K answer on the i8pq
// engine of BenchmarkTopKAnnVsExact's graph, and a warmed prediction,
// to allocation ceilings: the walk's table, visited bits and heaps come
// from the ann package's pooled scratch, and a prediction's gathered
// rows and logits share one allocation. The race detector's pools drop
// what is put back at random, so under it there is nothing to count.
func TestTopKAnnAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled scratches at random")
	}
	_, eng, _ := topkBenchEngines(t)
	ids := []int{3, 1400, 5999}
	cases := []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"TopKWith ann i8pq", 6, func() error { _, err := eng.TopKWith(1234, 10, ModeANN, 0); return err }},
		{"Predict", 12, func() error { _, err := eng.Predict(ids); return err }},
	}
	for _, c := range cases {
		if err := c.run(); err != nil { // warm the index and the pool
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocs an answer, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs an answer (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
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
