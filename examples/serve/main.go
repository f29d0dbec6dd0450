// Serve: the full train → checkpoint → serve → hot-reload loop in one
// process — the online-inference counterpart of examples/quickstart.
//
// It trains a small model, saves a checkpoint, mounts the HTTP
// serving layer on an ephemeral port, queries /embed, /predict
// and /topk, then trains further, saves again and hot-reloads the
// server, showing the snapshot version advance without restarting.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"gsgcn"
)

func main() {
	ds, err := gsgcn.LoadPreset("ppi", 0.02, 0)
	if err != nil {
		log.Fatal(err)
	}
	cfg := gsgcn.Config{Layers: 2, Hidden: 32, LR: 0.02, Seed: 7}
	model := gsgcn.NewModel(ds, cfg)
	tr := gsgcn.NewTrainer(ds, model)
	for e := 0; e < 5; e++ {
		tr.Epoch()
	}
	fmt.Printf("trained 5 epochs: val-F1 %.4f\n", tr.Evaluate(ds.ValIdx))

	dir, err := os.MkdirTemp("", "gsgcn-serve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "model.ckpt")
	model.ModelVersion = uint64(tr.Steps())
	if err := model.SaveFile(ckpt); err != nil {
		log.Fatal(err)
	}

	// Mount the serving layer on an ephemeral port.
	srv := gsgcn.NewInferenceServer(ds, gsgcn.ServeOptions{})
	defer srv.Close()
	if _, err := srv.Load(ckpt); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	base := "http://" + ln.Addr().String()

	get := func(path string) map[string]any {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			log.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			log.Fatal(err)
		}
		return out
	}

	health := get("/healthz")
	fmt.Printf("healthz: status=%v version=%v model_version=%v dim=%v\n",
		health["status"], health["version"], health["model_version"], health["dim"])

	emb := get("/embed?ids=0,1,2")
	vecs := emb["embeddings"].([]any)
	fmt.Printf("embed: %d vectors of dim %v (version %v)\n", len(vecs), emb["dim"], emb["version"])

	pred := get("/predict?ids=0,1,2")
	fmt.Printf("predict: labels=%v (multi_label=%v)\n", pred["labels"], pred["multi_label"])

	tk := get("/topk?id=0&k=5")
	fmt.Printf("topk(0): %v\n", tk["neighbors"])

	// Train further and hot-reload: in-flight queries keep their old
	// snapshot, new queries see the new version.
	for e := 0; e < 5; e++ {
		tr.Epoch()
	}
	model.ModelVersion = uint64(tr.Steps())
	if err := model.SaveFile(ckpt); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/reload", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	health = get("/healthz")
	fmt.Printf("after hot reload: version=%v model_version=%v val-F1 %.4f\n",
		health["version"], health["model_version"], tr.Evaluate(ds.ValIdx))
}
