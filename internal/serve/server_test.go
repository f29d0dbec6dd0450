package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
)

// trainAndSave trains a few steps and writes a checkpoint, returning
// its path.
func trainAndSave(tb testing.TB, ds *datasets.Dataset, seed uint64, dir string) string {
	tb.Helper()
	m := core.NewModel(ds, core.Config{
		Layers: 2, Hidden: 8, Workers: 1, Seed: seed,
		FrontierM: 30, Budget: 120, PInter: 1,
	})
	tr := core.NewTrainer(ds, m)
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	m.ModelVersion = uint64(tr.Steps())
	path := filepath.Join(dir, fmt.Sprintf("model-%d.ckpt", seed))
	if err := m.SaveFile(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

func getJSON(tb testing.TB, url string, out any) int {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			tb.Fatalf("bad JSON %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Before any checkpoint: healthz reports loading, queries 503.
	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "loading" {
		t.Errorf("pre-load status = %q", health.Status)
	}
	if code := getJSON(t, ts.URL+"/embed?ids=0", nil); code != http.StatusServiceUnavailable {
		t.Errorf("pre-load embed = %d, want 503", code)
	}

	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}

	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Version != 1 || health.ModelVersion != 3 {
		t.Errorf("healthz = %+v", health)
	}
	if health.Vertices != ds.G.NumVertices() || health.Classes != ds.NumClasses {
		t.Errorf("healthz graph stats = %+v", health)
	}

	// GET /embed.
	var emb EmbedResult
	if code := getJSON(t, ts.URL+"/embed?ids=0,5,7", &emb); code != 200 {
		t.Fatalf("embed = %d", code)
	}
	if len(emb.Vectors) != 3 || len(emb.Vectors[0]) != emb.Dim || emb.Version != 1 {
		t.Errorf("embed result shape: %d vectors, dim %d, version %d", len(emb.Vectors), emb.Dim, emb.Version)
	}

	// POST /embed with a JSON body answers identically.
	body, _ := json.Marshal(map[string][]int{"ids": {0, 5, 7}})
	resp, err := http.Post(ts.URL+"/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var emb2 EmbedResult
	if err := json.NewDecoder(resp.Body).Decode(&emb2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(emb2.Vectors) != 3 || emb2.Vectors[1][0] != emb.Vectors[1][0] {
		t.Error("POST /embed differs from GET /embed")
	}

	// /predict.
	var pred PredictResult
	if code := getJSON(t, ts.URL+"/predict?ids=1,2", &pred); code != 200 {
		t.Fatalf("predict = %d", code)
	}
	if pred.Classes != ds.NumClasses || len(pred.Labels) != 2 || len(pred.Probs[0]) != ds.NumClasses {
		t.Errorf("predict result = %+v", pred)
	}

	// /topk.
	var tk TopKResult
	if code := getJSON(t, ts.URL+"/topk?id=3&k=5", &tk); code != 200 {
		t.Fatalf("topk = %d", code)
	}
	if len(tk.Neighbors) != 5 || tk.ID != 3 || tk.K != 5 {
		t.Errorf("topk result = %+v", tk)
	}

	// Error paths.
	if code := getJSON(t, ts.URL+"/embed?ids=99999", nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range id = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/embed?ids=abc", nil); code != http.StatusBadRequest {
		t.Errorf("garbage id = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/embed", nil); code != http.StatusBadRequest {
		t.Errorf("missing ids = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/topk?id=0&k=-2", nil); code != http.StatusBadRequest {
		t.Errorf("bad k = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/reload", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload = %d, want 405", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/embed?ids=0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /embed = %d, want 405", resp.StatusCode)
	}

	// After Close, queries are a retryable server-side condition.
	srv.Close()
	if code := getJSON(t, ts.URL+"/embed?ids=0", nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-Close embed = %d, want 503", code)
	}
}

func TestServerReloadSwapsVersion(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt1 := trainAndSave(t, ds, 1, dir)
	ckpt2 := trainAndSave(t, ds, 2, dir)

	srv := NewServer(ds, Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpt1); err != nil {
		t.Fatal(err)
	}

	// POST /reload with an explicit path swaps to the new checkpoint.
	body, _ := json.Marshal(map[string]string{"path": ckpt2})
	resp, err := http.Post(ts.URL+"/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rl reloadBody
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rl.Version != 2 {
		t.Fatalf("reload = %d %+v", resp.StatusCode, rl)
	}
	if rl.WarmStart {
		t.Errorf("artifact-less reload reports warm_start: %+v", rl)
	}

	// Bodyless POST /reload re-reads the last path (now ckpt2).
	resp, err = http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bodyless reload = %d", resp.StatusCode)
	}
	var health Health
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Version != 3 {
		t.Errorf("version after two reloads = %d, want 3", health.Version)
	}
}

// TestHotReloadUnderLoad hammers /embed and /topk from many
// goroutines while the checkpoint is hot-swapped repeatedly: every
// response must succeed, and each must be internally consistent with
// whichever snapshot answered it.
func TestHotReloadUnderLoad(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpts := []string{
		trainAndSave(t, ds, 1, dir),
		trainAndSave(t, ds, 2, dir),
		trainAndSave(t, ds, 3, dir),
	}

	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpts[0]); err != nil {
		t.Fatal(err)
	}

	const reloads = 6
	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/embed?ids=%d,%d", ts.URL, i%300, (i+7)%300)
				if g%2 == 1 {
					url = fmt.Sprintf("%s/topk?id=%d&k=3", ts.URL, i%300)
				}
				resp, err := client.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				var versioned struct {
					Version uint64 `json:"version"`
				}
				if err := json.Unmarshal(body, &versioned); err != nil {
					errs <- fmt.Errorf("bad body %q: %v", body, err)
					return
				}
				if versioned.Version < 1 || versioned.Version > reloads+1 {
					errs <- fmt.Errorf("impossible version %d", versioned.Version)
					return
				}
			}
		}(g)
	}

	for i := 0; i < reloads; i++ {
		if _, err := srv.Load(ckpts[(i+1)%len(ckpts)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var health Health
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Version != reloads+1 {
		t.Errorf("final version = %d, want %d", health.Version, reloads+1)
	}
}
