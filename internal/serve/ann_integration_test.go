package serve

import (
	"fmt"
	"testing"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
)

// annDataset is a >= 2k-vertex seeded graph — the scale the
// acceptance bar names for the recall gate.
func annDataset(tb testing.TB) *datasets.Dataset {
	tb.Helper()
	return datasets.Generate(datasets.Config{
		Name: "ann-test", Vertices: 2200, TargetEdges: 17600,
		FeatureDim: 24, NumClasses: 6,
		Homophily: 0.8, NoiseStd: 0.5, Seed: 31,
	})
}

// trainedEngine trains a model for a few steps (so the embedding
// table carries real learned structure, not initialization noise) and
// installs it.
func trainedEngine(tb testing.TB, ds *datasets.Dataset, opts Options) *Engine {
	tb.Helper()
	m := core.NewModel(ds, core.Config{
		Layers: 2, Hidden: 16, Workers: 1, Seed: 7,
		FrontierM: 50, Budget: 400, PInter: 1,
	})
	tr := core.NewTrainer(ds, m)
	for i := 0; i < 10; i++ {
		tr.Step()
	}
	eng := NewEngine(ds, opts)
	if _, err := eng.Install(m); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestANNRecallOnTrainedEmbeddings is the serving-side half of the
// recall harness: on trained-checkpoint embeddings over a >= 2k-vertex
// seeded graph, mode=ann at the default ef must reach recall@10 >=
// 0.95 against the exact scanner.
func TestANNRecallOnTrainedEmbeddings(t *testing.T) {
	ds := annDataset(t)
	eng := trainedEngine(t, ds, Options{Workers: 3, ANN: true})
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	idx := eng.annIndex(st)

	n := st.Emb.NumRows()
	queries := make([]int32, 0, 100)
	for q := 0; q < n; q += n / 100 {
		queries = append(queries, int32(q))
	}
	rep := idx.RecallAtK(queries, 10, 0)
	t.Logf("trained embeddings: recall@10 = %.4f (worst %.4f) over %d queries at default ef",
		rep.Recall, rep.Worst, rep.Queries)
	if rep.Recall < 0.95 {
		t.Fatalf("recall@10 = %.4f on trained embeddings, want >= 0.95", rep.Recall)
	}
}

// annDtypes are the resident representations mode=ann is served from:
// the f64 walk and the two quantized walks share every contract below.
var annDtypes = []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ}

// TestANNTopKProperties checks the serving-level invariants of
// mode=ann answers at every dtype: valid ids, no self, no duplicates,
// sorted by the ann.Before total order, mode/ef reported, and — at
// ef=|V| — exact agreement with the mode=exact scanner (the ann ⊆
// exact property at full beam width; on a quantized table the full
// beam is every row the walk can reach, reranked exactly).
func TestANNTopKProperties(t *testing.T) {
	ds := annDataset(t)
	n := ds.G.NumVertices()
	for _, dtype := range annDtypes {
		eng := trainedEngine(t, ds, Options{Workers: 2, Dtype: dtype})
		for _, q := range []int{0, 321, 1100, 2199} {
			res, err := eng.TopKWith(q, 10, ModeANN, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != ModeANN || res.Ef != eng.opts.ANNEf {
				t.Fatalf("%s q=%d: mode=%q ef=%d, want ann/%d", dtype, q, res.Mode, res.Ef, eng.opts.ANNEf)
			}
			if len(res.Neighbors) != 10 {
				t.Fatalf("%s q=%d: %d neighbors", dtype, q, len(res.Neighbors))
			}
			seen := make(map[int]bool)
			for i, nb := range res.Neighbors {
				if nb.ID < 0 || nb.ID >= n || nb.ID == q || seen[nb.ID] {
					t.Fatalf("%s q=%d rank %d: bad id %d", dtype, q, i, nb.ID)
				}
				seen[nb.ID] = true
				if i > 0 {
					prev := res.Neighbors[i-1]
					if !ann.Before(prev.Score, int32(prev.ID), nb.Score, int32(nb.ID)) {
						t.Fatalf("%s q=%d: neighbors not in ann.Before order at rank %d", dtype, q, i)
					}
				}
			}

			// Full beam: the ANN answer must equal the exact scan. (The
			// engine falls back to the scan at ef >= |V|-1, so probe the
			// index directly at ef = n for the search-path property, and
			// the engine for the fallback.)
			st, _ := eng.Snapshot()
			vec, norm := st.Emb.Row(q), st.norms[q]
			full := eng.annIndex(st).Search(vec, norm, 10, n, int32(q))
			if st.quant != nil {
				full = ann.RerankExact(st.Emb, st.norms, vec, norm, eng.annIndex(st).SearchQuant(st.quant, vec, norm, n, int32(q)), 10)
			}
			exact, err := eng.TopKWith(q, 10, ModeExact, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != len(exact.Neighbors) {
				t.Fatalf("%s q=%d: full-beam %d results vs exact %d", dtype, q, len(full), len(exact.Neighbors))
			}
			for i, c := range full {
				if int(c.ID) != exact.Neighbors[i].ID || c.Score != exact.Neighbors[i].Score {
					t.Fatalf("%s q=%d rank %d: full-beam %+v vs exact %+v", dtype, q, i, c, exact.Neighbors[i])
				}
			}
		}
	}
}

// TestANNFallsBackToExact checks the fallback contract: an ANN
// request whose beam or k covers the whole table is answered by the
// exact scan and says so.
func TestANNFallsBackToExact(t *testing.T) {
	ds := testDataset(t, false) // 300 vertices
	eng := trainedSmall(t, ds, Options{Workers: 2})
	n := ds.G.NumVertices()

	res, err := eng.TopKWith(5, 10, ModeANN, n)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExact || res.Ef != 0 {
		t.Errorf("ef=|V| answered in mode %q ef=%d, want exact fallback", res.Mode, res.Ef)
	}
	res, err = eng.TopKWith(5, n-1, ModeANN, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeExact {
		t.Errorf("k=|V|-1 answered in mode %q, want exact fallback", res.Mode)
	}
	if len(res.Neighbors) != n-1 {
		t.Errorf("k=|V|-1 returned %d neighbors", len(res.Neighbors))
	}
	// Past the last valid k: an error, not a clamp.
	if _, err := eng.TopKWith(5, n, ModeANN, 0); err == nil {
		t.Error("k=|V| should fail")
	}
	// Unknown mode: an error.
	if _, err := eng.TopKWith(5, 3, "fuzzy", 0); err == nil {
		t.Error("unknown mode should fail")
	}
}

func trainedSmall(tb testing.TB, ds *datasets.Dataset, opts Options) *Engine {
	tb.Helper()
	eng := NewEngine(ds, opts)
	if _, err := eng.Install(testModel(tb, ds, 2)); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// TestANNDeterministicAcrossWorkersAndRebuilds asserts the acceptance
// bar's determinism clause at the serving layer, per dtype: mode=ann
// result lists — ids and float scores — are bit-identical across
// Workers settings, across index rebuilds (fresh engines over the same
// model), and between a cold engine that builds its index on the first
// query and one warm-started from a memory-mapped artifact that
// carries it.
func TestANNDeterministicAcrossWorkersAndRebuilds(t *testing.T) {
	ds := annDataset(t)
	m := core.NewModel(ds, core.Config{
		Layers: 2, Hidden: 16, Workers: 1, Seed: 7,
		FrontierM: 50, Budget: 400, PInter: 1,
	})
	type answer struct {
		q   int
		nbs []Neighbor
	}
	for _, dtype := range annDtypes {
		collect := func(opts Options) []answer {
			opts.ANN, opts.Dtype = true, dtype
			eng := NewEngine(ds, opts)
			if _, err := eng.Install(m); err != nil {
				t.Fatal(err)
			}
			if st, _ := eng.Snapshot(); st.WarmStart != (opts.ArtifactPath != "") || st.IndexReady() != st.WarmStart {
				t.Fatalf("%s: warm=%v index ready=%v with artifact %q: %s", dtype, st.WarmStart, st.IndexReady(), opts.ArtifactPath, st.WarmNote)
			}
			var out []answer
			for _, q := range []int{0, 99, 777, 2001} {
				for _, ef := range []int{0, 32, 200} {
					res, err := eng.TopKWith(q, 10, ModeANN, ef)
					if err != nil {
						t.Fatal(err)
					}
					if res.Mode != ModeANN {
						t.Fatalf("%s q=%d ef=%d answered in mode %q", dtype, q, ef, res.Mode)
					}
					out = append(out, answer{q: q, nbs: res.Neighbors})
				}
			}
			return out
		}
		same := func(what string, got, ref []answer) {
			t.Helper()
			for i := range ref {
				if len(got[i].nbs) != len(ref[i].nbs) {
					t.Fatalf("%s %s q=%d: %d vs %d neighbors", dtype, what, got[i].q, len(got[i].nbs), len(ref[i].nbs))
				}
				for j := range ref[i].nbs {
					if got[i].nbs[j] != ref[i].nbs[j] {
						t.Fatalf("%s %s q=%d rank %d: %+v vs %+v", dtype, what, got[i].q, j, got[i].nbs[j], ref[i].nbs[j])
					}
				}
			}
		}
		ref := collect(Options{Workers: 1})
		for _, workers := range []int{2, 4} {
			same(fmt.Sprintf("workers=%d", workers), collect(Options{Workers: workers}), ref)
		}
		// Rebuild with identical settings: identical answers.
		same("rebuild", collect(Options{Workers: 1}), ref)

		snap, err := BuildSnapshot(ds, m, Options{Workers: 2, Dtype: dtype}, true)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/m.art"
		if _, err := artifact.WriteFile(path, snap); err != nil {
			t.Fatal(err)
		}
		same("warm mmap", collect(Options{Workers: 2, ArtifactPath: path}), ref)
	}
}

// TestANNIndexLazyAndInvalidated checks the memoization contract at
// every dtype — a quantized snapshot with no artifact index has no
// other path to fall back on: the first mode=ann query builds the
// index, once per snapshot, and a reload discards it with its snapshot.
func TestANNIndexLazyAndInvalidated(t *testing.T) {
	ds := testDataset(t, false)
	for _, dtype := range annDtypes {
		eng := trainedSmall(t, ds, Options{Workers: 2, ANN: true, Dtype: dtype})
		st1, _ := eng.Snapshot()
		if st1.IndexReady() {
			t.Fatalf("%s: index built before any ann query", dtype)
		}
		if res, err := eng.TopKWith(5, 3, ModeANN, 0); err != nil || res.Mode != ModeANN {
			t.Fatalf("%s: first ann query: %+v, %v", dtype, res, err)
		}
		a := st1.annIdx.Load()
		if a == nil || eng.annIndex(st1) != a {
			t.Fatalf("%s: the first ann query did not leave the memoized index", dtype)
		}
		if a.Len() != ds.G.NumVertices() {
			t.Fatalf("%s: index covers %d vertices, want %d", dtype, a.Len(), ds.G.NumVertices())
		}

		// New snapshot: fresh index over the new table.
		if _, err := eng.Install(testModelSeed(ds, 2, 18)); err != nil {
			t.Fatal(err)
		}
		st2, _ := eng.Snapshot()
		if st2 == st1 {
			t.Fatalf("%s: reload did not swap the snapshot", dtype)
		}
		if st2.IndexReady() {
			t.Fatalf("%s: fresh snapshot carries a prebuilt index", dtype)
		}
		if b := eng.annIndex(st2); b == a {
			t.Fatalf("%s: reload served the stale index", dtype)
		}
	}
}

// TestANNCacheKeyedByModeAndEf makes sure exact and ann answers for
// the same (id, k) never collide in the memo cache.
func TestANNCacheKeyedByModeAndEf(t *testing.T) {
	ds := testDataset(t, false)
	srv := memoServer(t, ds)
	exact1 := serverTopK(t, srv, topkQuery{id: 3, k: 5})
	annRes := serverTopK(t, srv, topkQuery{id: 3, k: 5, ann: true, ef: 16})
	if annRes == exact1 {
		t.Fatal("ann query served the cached exact result")
	}
	annRes2 := serverTopK(t, srv, topkQuery{id: 3, k: 5, ann: true, ef: 32})
	if annRes2 == annRes {
		t.Fatal("different ef served the same cached result")
	}
	if exact2 := serverTopK(t, srv, topkQuery{id: 3, k: 5}); exact2 != exact1 {
		t.Fatal("exact result was not memoized")
	}
	if ann2 := serverTopK(t, srv, topkQuery{id: 3, k: 5, ann: true, ef: 16}); ann2 != annRes {
		t.Fatal("ann result was not memoized")
	}
	// Sanity: ann/exact disagreement is allowed, shared ranks agree on
	// the total order.
	if exact1.Mode != ModeExact || annRes.Mode != ModeANN {
		t.Fatalf("modes: %q / %q", exact1.Mode, annRes.Mode)
	}
	keys := map[topkKey]bool{}
	for _, key := range memoKeys(srv) {
		keys[key] = true
	}
	for _, want := range []topkQuery{{id: 3, k: 5}, {id: 3, k: 5, ann: true, ef: 16}, {id: 3, k: 5, ann: true, ef: 32}} {
		if !keys[topkKey{1, want}] {
			t.Errorf("memo keys %v lack %+v", keys, want)
		}
	}
	if len(keys) != 3 {
		t.Errorf("memo holds %d keys, want 3 (exact, ef 16, ef 32)", len(keys))
	}
}

// TestAnnPackageAgreesWithServeScan pins the two exact scanners — the
// ann package's harness reference and serve's sharded scan —
// to each other, element for element, on served embeddings.
func TestAnnPackageAgreesWithServeScan(t *testing.T) {
	ds := testDataset(t, false)
	eng := trainedSmall(t, ds, Options{Workers: 3})
	st, _ := eng.Snapshot()
	for _, q := range []int{0, 42, 299} {
		want, err := eng.TopKWith(q, 7, ModeExact, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := ann.ExactTopK(st.Emb, st.norms, st.Emb.Row(q), st.norms[q], 7, int32(q))
		if len(got) != len(want.Neighbors) {
			t.Fatalf("q=%d: %d vs %d", q, len(got), len(want.Neighbors))
		}
		for i, c := range got {
			if int(c.ID) != want.Neighbors[i].ID || c.Score != want.Neighbors[i].Score {
				t.Fatalf("q=%d rank %d: ann %+v vs serve %+v", q, i, c, want.Neighbors[i])
			}
		}
	}
}
