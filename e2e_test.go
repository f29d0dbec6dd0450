package gsgcn_test

// The full serving pipeline — datagen → train → save a v2 checkpoint
// → dataset-free model reconstruction → serving engine → live HTTP
// queries — in one process, with golden assertions the process-level
// smoke script (scripts/serve-smoke.sh) cannot make: the
// served /embed vectors are bit-identical to the training-side
// forward pass, and /predict agrees with the training prediction rule
// applied to the training-side logits.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gsgcn"
	"gsgcn/internal/nn"
	"gsgcn/internal/serve"
)

func e2eGet(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestEndToEndServingPipeline(t *testing.T) {
	// Datagen: a small synthetic graph, fully seeded.
	ds := gsgcn.GenerateDataset(gsgcn.DatasetConfig{
		Name: "e2e", Vertices: 300, TargetEdges: 2400,
		FeatureDim: 12, NumClasses: 4,
		Homophily: 0.8, NoiseStd: 0.5, Seed: 23,
	})

	// Train 2 epochs and stamp the optimizer-step count.
	m := gsgcn.NewModel(ds, gsgcn.Config{
		Layers: 2, Hidden: 8, Workers: 1, Seed: 5,
		FrontierM: 30, Budget: 120, PInter: 1,
	})
	tr := gsgcn.NewTrainer(ds, m)
	for epoch := 0; epoch < 2; epoch++ {
		tr.Epoch()
	}
	m.ModelVersion = uint64(tr.Steps())

	// Save the v2 checkpoint and reconstruct a model from the file
	// alone — the dataset-free serving path.
	ckpt := filepath.Join(t.TempDir(), "e2e.ckpt")
	if err := m.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	loaded, err := gsgcn.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelVersion != m.ModelVersion {
		t.Fatalf("reloaded ModelVersion = %d, want %d", loaded.ModelVersion, m.ModelVersion)
	}

	// Golden references from the TRAINING side: the full-graph
	// forward pass of the trained model (embeddings and logits) and
	// the training prediction rule.
	wantEmb := m.FullEmbeddings(ds.G, ds.Features, 1, 256)
	ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	wantLogits := m.Forward(ctx, ds.Features)
	wantLabels := nn.PredictSingle(wantLogits)

	// Serve over HTTP.
	srv := gsgcn.NewInferenceServer(ds, gsgcn.ServeOptions{Workers: 2})
	defer srv.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// /healthz reflects the loaded snapshot.
	var health struct {
		Status       string `json:"status"`
		Version      uint64 `json:"version"`
		ModelVersion uint64 `json:"model_version"`
		Vertices     int    `json:"vertices"`
		Dim          int    `json:"dim"`
	}
	if code := e2eGet(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Version != 1 ||
		health.ModelVersion != m.ModelVersion || health.Vertices != 300 {
		t.Fatalf("healthz = %+v", health)
	}
	if health.Dim != wantEmb.Cols {
		t.Fatalf("served dim %d, training emb dim %d", health.Dim, wantEmb.Cols)
	}

	// /embed: shape and bit-identity with the training forward pass.
	ids := []int{0, 7, 150, 299}
	var emb serve.EmbedResult
	url := fmt.Sprintf("%s/embed?ids=0,7,150,299", ts.URL)
	if code := e2eGet(t, url, &emb); code != 200 {
		t.Fatalf("embed = %d", code)
	}
	if emb.Dim != wantEmb.Cols || len(emb.Vectors) != len(ids) {
		t.Fatalf("embed shape: dim %d, %d vectors", emb.Dim, len(emb.Vectors))
	}
	for i, id := range ids {
		if len(emb.Vectors[i]) != wantEmb.Cols {
			t.Fatalf("vector %d has %d dims", i, len(emb.Vectors[i]))
		}
		for j, x := range emb.Vectors[i] {
			if x != wantEmb.At(id, j) {
				t.Fatalf("served embedding[%d][%d] = %g differs from training forward pass %g",
					id, j, x, wantEmb.At(id, j))
			}
		}
	}

	// /predict: labels equal the training prediction rule on the
	// training-side logits, probabilities well-formed.
	var pred serve.PredictResult
	if code := e2eGet(t, ts.URL+"/predict?ids=0,7,150,299", &pred); code != 200 {
		t.Fatalf("predict = %d", code)
	}
	if pred.Classes != ds.NumClasses || pred.MultiLabel {
		t.Fatalf("predict meta = %+v", pred)
	}
	for i, id := range ids {
		if len(pred.Labels[i]) != 1 || len(pred.Probs[i]) != ds.NumClasses {
			t.Fatalf("vertex %d: %d labels, %d probs", id, len(pred.Labels[i]), len(pred.Probs[i]))
		}
		if got := pred.Labels[i][0]; wantLabels.At(id, got) != 1 {
			t.Fatalf("vertex %d served label %d disagrees with training rule", id, got)
		}
		sum := 0.0
		for _, p := range pred.Probs[i] {
			if p < 0 || p > 1 {
				t.Fatalf("vertex %d prob %g out of range", id, p)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("vertex %d probs sum to %g", id, sum)
		}
	}

	// /topk in both modes: valid shapes, the ann answer drawn from the
	// same snapshot, and an explicit exact/ann agreement check at the
	// top rank (identical on this small graph's strongest neighbor).
	var exact, approx serve.TopKResult
	if code := e2eGet(t, ts.URL+"/topk?id=7&k=5", &exact); code != 200 {
		t.Fatalf("topk exact = %d", code)
	}
	if code := e2eGet(t, ts.URL+"/topk?id=7&k=5&mode=ann", &approx); code != 200 {
		t.Fatalf("topk ann = %d", code)
	}
	if exact.Mode != serve.ModeExact || approx.Mode != serve.ModeANN {
		t.Fatalf("modes: %q / %q", exact.Mode, approx.Mode)
	}
	if len(exact.Neighbors) != 5 || len(approx.Neighbors) != 5 {
		t.Fatalf("topk lengths: %d / %d", len(exact.Neighbors), len(approx.Neighbors))
	}
	if exact.Version != approx.Version || exact.Version != health.Version {
		t.Fatalf("topk versions: %d / %d", exact.Version, approx.Version)
	}
	if exact.Neighbors[0] != approx.Neighbors[0] {
		t.Fatalf("rank-1 neighbor differs: exact %+v vs ann %+v", exact.Neighbors[0], approx.Neighbors[0])
	}
	for _, nb := range approx.Neighbors {
		if nb.ID == 7 || nb.ID < 0 || nb.ID >= 300 {
			t.Fatalf("ann neighbor id %d invalid", nb.ID)
		}
	}
}
