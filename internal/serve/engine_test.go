package serve

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
)

func testDataset(tb testing.TB, multi bool) *datasets.Dataset {
	tb.Helper()
	return datasets.Generate(datasets.Config{
		Name: "serve-test", Vertices: 300, TargetEdges: 2400,
		FeatureDim: 12, NumClasses: 4, MultiLabel: multi,
		Homophily: 0.8, NoiseStd: 0.5, Seed: 11,
	})
}

func testModel(tb testing.TB, ds *datasets.Dataset, layers int) *core.Model {
	tb.Helper()
	return testModelSeed(ds, layers, 17)
}

// testModelSeed is testModel initialized from another seed: a model of
// the same architecture with other weights.
func testModelSeed(ds *datasets.Dataset, layers int, seed uint64) *core.Model {
	return core.NewModel(ds, core.Config{Layers: layers, Hidden: 8, Workers: 1, Seed: seed})
}

// TestEngineMatchesTrainingForward checks that serving logits (engine
// embeddings + head) are bit-identical to the training engine's own
// full-graph forward pass.
func TestEngineMatchesTrainingForward(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	want := m.Forward(ctx, ds.Features)

	eng := NewEngine(ds, Options{Workers: 3})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := mat.New(ds.G.N, m.Head.OutDim)
	st.Model.Head.Apply(got, st.Emb, nil, 1)
	if got.Rows != want.Rows || got.Cols != want.Cols || !bitsEqual([][]float64{got.Data}, [][]float64{want.Data}) {
		t.Fatalf("serving logits differ from training forward pass (max diff %g)", got.MaxAbsDiff(want))
	}
}

func TestEngineEmbedAndPredict(t *testing.T) {
	for _, multi := range []bool{false, true} {
		ds := testDataset(t, multi)
		m := testModel(t, ds, 2)
		eng := NewEngine(ds, Options{Workers: 2})
		if _, err := eng.Install(m); err != nil {
			t.Fatal(err)
		}

		ids := []int{0, 5, 299}
		emb, err := eng.Embed(ids)
		if err != nil {
			t.Fatal(err)
		}
		if emb.Dim != m.Layers[len(m.Layers)-1].OutWidth() {
			t.Errorf("embed dim = %d, want %d", emb.Dim, m.Layers[1].OutWidth())
		}
		if len(emb.Vectors) != 3 || len(emb.Vectors[0]) != emb.Dim {
			t.Fatalf("embed shapes: %d vectors of %d", len(emb.Vectors), len(emb.Vectors[0]))
		}
		st, _ := eng.Snapshot()
		for i, id := range ids {
			for j, x := range emb.Vectors[i] {
				if x != st.Emb.Row(id)[j] {
					t.Fatalf("vector %d element %d differs from table", i, j)
				}
			}
		}

		pred, err := eng.Predict(ids)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Classes != ds.NumClasses || pred.MultiLabel != multi {
			t.Fatalf("predict meta = %+v", pred)
		}
		// Labels must match the training-side prediction rule applied
		// to the full-graph logits.
		logits := mat.New(ds.G.N, m.Head.OutDim)
		st.Model.Head.Apply(logits, st.Emb, nil, 1)
		var ref *mat.Dense
		if multi {
			ref = nn.PredictMulti(logits)
		} else {
			ref = nn.PredictSingle(logits)
		}
		for i, id := range ids {
			want := []int{}
			for c := 0; c < ds.NumClasses; c++ {
				if ref.At(id, c) == 1 {
					want = append(want, c)
				}
			}
			got := pred.Labels[i]
			if len(got) != len(want) {
				t.Fatalf("vertex %d labels = %v, want %v", id, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("vertex %d labels = %v, want %v", id, got, want)
				}
			}
			if len(pred.Probs[i]) != ds.NumClasses {
				t.Fatalf("vertex %d has %d probs", id, len(pred.Probs[i]))
			}
			for _, p := range pred.Probs[i] {
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("vertex %d prob %v out of range", id, p)
				}
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	ds := testDataset(t, false)
	eng := NewEngine(ds, Options{})
	if _, err := eng.Embed([]int{0}); err == nil {
		t.Error("Embed before Install should fail")
	}
	m := testModel(t, ds, 2)
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Embed([]int{-1}); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := eng.Embed([]int{300}); err == nil {
		t.Error("out-of-range id should fail")
	}
	if _, err := eng.Embed(nil); err == nil {
		t.Error("empty ids should fail")
	}
	if _, err := eng.TopKWith(0, 0, ModeAuto, 0); err == nil {
		t.Error("k=0 should fail")
	}

	// A model shaped for a different dataset must be rejected.
	other := datasets.Generate(datasets.Config{
		Name: "other", Vertices: 100, TargetEdges: 400,
		FeatureDim: 7, NumClasses: 3, Seed: 5,
	})
	if _, err := eng.Install(testModel(t, other, 2)); err == nil {
		t.Error("installing a mismatched model should fail")
	}
}

// TestTopKMatchesBruteForce verifies the worker-sharded scan
// against a full sort, at several worker counts, and checks that the
// query node itself is excluded.
func TestTopKMatchesBruteForce(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	for _, workers := range []int{1, 2, 5} {
		eng := NewEngine(ds, Options{Workers: workers})
		if _, err := eng.Install(m); err != nil {
			t.Fatal(err)
		}
		st, _ := eng.Snapshot()
		for _, q := range []int{0, 17, 299} {
			for _, k := range []int{1, 5, 50} {
				got, err := eng.TopKWith(q, k, ModeAuto, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTopK(st, q, k)
				if len(got.Neighbors) != len(want) {
					t.Fatalf("workers=%d q=%d k=%d: %d neighbors, want %d",
						workers, q, k, len(got.Neighbors), len(want))
				}
				for i := range want {
					if got.Neighbors[i] != want[i] {
						t.Fatalf("workers=%d q=%d k=%d rank %d: got %+v, want %+v",
							workers, q, k, i, got.Neighbors[i], want[i])
					}
				}
				for _, nb := range got.Neighbors {
					if nb.ID == q {
						t.Fatalf("query vertex %d in its own neighbor list", q)
					}
				}
			}
		}
	}
}

func bruteTopK(st *State, q, k int) []Neighbor {
	var all []Neighbor
	qrow := st.Emb.Row(q)
	for v := 0; v < st.Emb.NumRows(); v++ {
		if v == q {
			continue
		}
		score := 0.0
		if d := st.norms[q] * st.norms[v]; d > 0 {
			score = mat.Dot(qrow, st.Emb.Row(v)) / d
		}
		all = append(all, Neighbor{ID: v, Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// memoServer is an unsharded Server with a model installed, for the
// top-K memo tests.
func memoServer(tb testing.TB, ds *datasets.Dataset) *Server {
	tb.Helper()
	srv := NewServer(ds, Options{Workers: 2})
	tb.Cleanup(srv.Close)
	if _, err := srv.Install(testModel(tb, ds, 2)); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// serverTopK runs q, a parsed query, through the served top-K path.
func serverTopK(tb testing.TB, srv *Server, q topkQuery) *TopKResult {
	tb.Helper()
	res, err := srv.topK(context.Background(), func() (topkQuery, error) { return q, nil })
	if err != nil {
		tb.Fatal(err)
	}
	return res.(*TopKResult)
}

// memoKeys returns a copy of the memo's keys.
func memoKeys(srv *Server) []topkKey {
	srv.cacheMu.Lock()
	defer srv.cacheMu.Unlock()
	keys := make([]topkKey, 0, len(srv.cache))
	for key := range srv.cache {
		keys = append(keys, key)
	}
	return keys
}

// TestTopKCacheVersioning checks that top-K answers are memoized per
// snapshot and invalidated when a new model is installed.
func TestTopKCacheVersioning(t *testing.T) {
	ds := testDataset(t, false)
	srv := memoServer(t, ds)
	q := topkQuery{id: 3, k: 5}
	a, b := serverTopK(t, srv, q), serverTopK(t, srv, q)
	if a != b {
		t.Error("second identical query did not hit the cache")
	}
	if a.Version != 1 {
		t.Errorf("first snapshot version = %d, want 1", a.Version)
	}

	// New snapshot: cache entries from version 1 must not be served.
	m2 := core.NewModel(ds, core.Config{Layers: 2, Hidden: 8, Workers: 1, Seed: 99})
	if _, err := srv.Install(m2); err != nil {
		t.Fatal(err)
	}
	c := serverTopK(t, srv, q)
	if c == a {
		t.Error("stale cached result served after reload")
	}
	if c.Version != 2 {
		t.Errorf("post-reload version = %d, want 2", c.Version)
	}
	for _, key := range memoKeys(srv) {
		if key.version != 2 {
			t.Errorf("stale cache key %+v survived reload", key)
		}
	}
}

// TestTopKMemoStopsAdmittingWhenFull pins the memo's admission rule:
// the first topkMemoLimit distinct queries after an install are
// stored; past that every query is still answered, and answered the
// same, but not stored — until the next install empties the memo.
func TestTopKMemoStopsAdmittingWhenFull(t *testing.T) {
	ds := testDataset(t, false) // 300 vertices
	srv := memoServer(t, ds)
	first := serverTopK(t, srv, topkQuery{id: 0, k: 1})
	for i := 1; i < topkMemoLimit; i++ {
		serverTopK(t, srv, topkQuery{id: i % 300, k: 1 + i/300})
	}
	if n := len(memoKeys(srv)); n != topkMemoLimit {
		t.Fatalf("memo holds %d answers after %d distinct queries, want %d", n, topkMemoLimit, topkMemoLimit)
	}

	late := topkQuery{id: 7, k: 9} // distinct from every query above
	a, b := serverTopK(t, srv, late), serverTopK(t, srv, late)
	if a == b {
		t.Error("a full memo admitted a new answer")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("unmemoized answers differ: %+v vs %+v", a, b)
	}
	if n := len(memoKeys(srv)); n != topkMemoLimit {
		t.Errorf("full memo grew to %d answers", n)
	}
	if serverTopK(t, srv, topkQuery{id: 0, k: 1}) != first {
		t.Error("an answer stored before the memo filled is no longer served from it")
	}

	if _, err := srv.Install(testModelSeed(ds, 2, 18)); err != nil {
		t.Fatal(err)
	}
	a = serverTopK(t, srv, late)
	if serverTopK(t, srv, late) != a || len(memoKeys(srv)) != 1 {
		t.Errorf("after an install the memo holds %d answers and does not serve the new one", len(memoKeys(srv)))
	}
}

// TestInstallRefusesNonFiniteWeights: an in-memory model with one
// non-finite first-layer weight is refused at install with
// core.ErrNonFinite — on an Engine and on 1- and 3-shard Servers — and
// the snapshot installed before it keeps its version and its answers.
func TestInstallRefusesNonFiniteWeights(t *testing.T) {
	ds := testDataset(t, false)
	good := testModel(t, ds, 2)
	eng := NewEngine(ds, Options{Workers: 1})
	srv1 := NewServer(ds, Options{Workers: 1})
	srv3, err := NewRouter(ds, Options{Workers: 1}, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 150, 299}
	serverPredict := func(s *Server) func() (any, error) {
		return func() (any, error) {
			return s.point(context.Background(), func() ([]int, error) { return ids, nil }, true)
		}
	}
	targets := []struct {
		name    string
		install func(*core.Model) (uint64, error)
		predict func() (any, error)
	}{
		{"engine", eng.Install, func() (any, error) { return eng.Predict(ids) }},
		{"shards1", srv1.Install, serverPredict(srv1)},
		{"shards3", srv3.Install, serverPredict(srv3)},
	}
	for _, tg := range targets {
		if v, err := tg.install(good); v != 1 || err != nil {
			t.Fatalf("%s: good install = %d, %v", tg.name, v, err)
		}
		want, err := tg.predict()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := testModel(t, ds, 2)
			bad.Params()[0].W.Data[5] = v
			if ver, err := tg.install(bad); ver != 0 || !errors.Is(err, core.ErrNonFinite) {
				t.Errorf("%s: install with a %v weight = %d, %v; want 0 and core.ErrNonFinite", tg.name, v, ver, err)
			}
			got, err := tg.predict()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: after a refused %v install, predict = %+v, %v; want %+v", tg.name, v, got, err, want)
			}
		}
	}
}
