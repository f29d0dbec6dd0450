package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

// TestRegistryIsolationUnderFailingReload is the registry concurrency
// suite (the multi-model extension of PR 3's reload-under-load
// harness): clients hammer model A's endpoints — prefixed and legacy
// — while model B suffers a storm of reloads, half of them failing on
// a missing checkpoint. Per-model isolation demands that A sees zero
// errors and byte-for-byte unchanged answers throughout, that B's bad
// reloads come back as clean 500s, and that both models are fully
// live afterwards with A's snapshot version untouched.
func TestRegistryIsolationUnderFailingReload(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)

	reg := NewRegistry()
	defer reg.Close()
	srvA, err := reg.Add("a", ds, Options{Workers: 2, ANNEf: 16})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := reg.Add("b", ds, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Load(ckptA); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Load(ckptB); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	// Baseline answers for model A, captured before any reload storm.
	queries := []string{
		"/models/a/embed?ids=0,5",
		"/models/a/predict?ids=1,2",
		"/models/a/topk?id=0&k=4",
		"/models/a/topk?id=3&k=3&mode=ann&ef=16",
		"/topk?id=0&k=4", // legacy route, also model A
	}
	baseline := make(map[string]string, len(queries))
	for _, q := range queries {
		code, body := getBody(t, ts.URL+q)
		if code != 200 {
			t.Fatalf("baseline %s = %d", q, code)
		}
		baseline[q] = string(body)
	}

	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+g)%len(queries)]
				resp, err := http.Get(ts.URL + q)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("model A during B's reloads: %s = %d %s", q, resp.StatusCode, body)
					return
				}
				if string(body) != baseline[q] {
					errs <- fmt.Errorf("model A answer changed during B's reloads: %s\n was: %s\n now: %s",
						q, baseline[q], body)
					return
				}
			}
		}(g)
	}

	// The reload storm against model B: good, then failing, repeatedly.
	for i := 0; i < 6; i++ {
		status, _, _ := doReq(t, "POST", ts.URL+"/models/b/reload", "")
		if status != 200 {
			t.Fatalf("good reload of b #%d = %d", i, status)
		}
		status, msg, isJSON := doReq(t, "POST", ts.URL+"/models/b/reload", `{"path": "/nope.ckpt"}`)
		if status != http.StatusInternalServerError || !isJSON || msg == "" {
			t.Fatalf("bad reload of b #%d = %d %q (json %v)", i, status, msg, isJSON)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A's snapshot never moved; B advanced by the 6 good reloads plus
	// 6 failed Loads that must not have bumped its version.
	stA, _ := srvA.shards[0].eng.Snapshot()
	stB, _ := srvB.shards[0].eng.Snapshot()
	if stA.Version != 1 {
		t.Errorf("model A version after B's reload storm = %d, want 1", stA.Version)
	}
	if stB.Version != 7 {
		t.Errorf("model B version = %d, want 7 (1 load + 6 good reloads)", stB.Version)
	}
	// Note: a failing /reload with an explicit path leaves B's
	// remembered checkpoint untouched only if Load rejects before
	// remembering — pin that too.
	if got := srvB.CheckpointPath(); got != ckptB {
		t.Errorf("model B checkpoint path after failed reloads = %q, want %q", got, ckptB)
	}
	for _, q := range append(queries, "/models/b/topk?id=0&k=3") {
		if code, _ := getBody(t, ts.URL+q); code != 200 {
			t.Errorf("post-storm %s = %d", q, code)
		}
	}
}

// TestRegistryReloadAllIsolation pins the SIGHUP fleet-reload
// semantics ReloadAll implements: every model is attempted, failures
// come back per model instead of aborting the sweep, and a model
// whose checkpoint is corrupt keeps serving its previous snapshot at
// its previous version while the healthy models all advance.
func TestRegistryReloadAllIsolation(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)
	ckptC := trainAndSave(t, ds, 3, dir)

	reg := NewRegistry()
	defer reg.Close()
	srvA, err := reg.Add("a", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := reg.Add("b", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A sharded model participates in the same fleet reload.
	rtC, err := reg.AddSharded("c", ds, Options{Workers: 1}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []struct {
		srv  *Server
		path string
	}{{srvA, ckptA}, {srvB, ckptB}, {rtC, ckptC}} {
		if _, err := load.srv.Load(load.path); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(reg)
	defer ts.Close()
	_, beforeB := getBody(t, ts.URL+"/models/b/embed?ids=0,1,2")

	// All healthy: the sweep reports zero failures and every model —
	// including each shard of the sharded one — advances by one.
	if failures := reg.ReloadAll(); len(failures) != 0 {
		t.Fatalf("healthy ReloadAll failures = %v", failures)
	}
	stA, _ := srvA.shards[0].eng.Snapshot()
	if stA.Version != 2 {
		t.Errorf("model a version after fleet reload = %d, want 2", stA.Version)
	}
	for i := 0; i < rtC.Shards(); i++ {
		if st, _ := rtC.Shard(i).Snapshot(); st.Version != 2 {
			t.Errorf("model c shard %d version = %d, want 2", i, st.Version)
		}
	}

	// Corrupt model b's checkpoint on disk, then sweep again: only b
	// fails, a and c still advance, b keeps serving the old snapshot.
	if err := os.WriteFile(ckptB, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	failures := reg.ReloadAll()
	if len(failures) != 1 || failures["b"] == nil {
		t.Fatalf("failures after corrupting b = %v, want exactly {b: …}", failures)
	}
	stA, _ = srvA.shards[0].eng.Snapshot()
	stB, _ := srvB.shards[0].eng.Snapshot()
	stC, _ := rtC.Shard(0).Snapshot()
	if stA.Version != 3 || stC.Version != 3 {
		t.Errorf("healthy models after partial failure: a=%d c=%d, want 3", stA.Version, stC.Version)
	}
	if stB.Version != 2 {
		t.Errorf("failed model b version = %d, want 2 (previous snapshot untouched)", stB.Version)
	}
	code, afterB := getBody(t, ts.URL+"/models/b/embed?ids=0,1,2")
	if code != 200 {
		t.Fatalf("model b after failed reload = %d", code)
	}
	var before, after EmbedResult
	if err := json.Unmarshal(beforeB, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(afterB, &after); err != nil {
		t.Fatal(err)
	}
	// Same model weights (the failed reload changed nothing but the
	// version counter, which moved only on the earlier healthy sweep).
	if fmt.Sprint(before.Vectors) != fmt.Sprint(after.Vectors) {
		t.Error("model b's answers changed after a failed reload")
	}
}
