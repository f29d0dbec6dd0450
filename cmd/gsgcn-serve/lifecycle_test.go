package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"gsgcn"
)

// trainCkpt trains a tiny model on ds and writes a checkpoint.
func trainCkpt(t *testing.T, ds *gsgcn.Dataset, dir string) string {
	t.Helper()
	m := gsgcn.NewModel(ds, gsgcn.Config{
		Layers: 2, Hidden: 8, Workers: 1, Seed: 17,
		FrontierM: 30, Budget: 120, PInter: 1,
	})
	tr := gsgcn.NewTrainer(ds, m)
	for i := 0; i < 2; i++ {
		tr.Step()
	}
	m.ModelVersion = uint64(tr.Steps())
	path := filepath.Join(dir, "m.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHandleSignalsDrainsBeforeClose is the shutdown-sequencing
// regression test. The old lifecycle closed the registry concurrently
// with the HTTP drain, so requests still in flight when SIGTERM
// arrived were answered 503 from closed models. The fixed
// sequence — Shutdown (drain) first, registry Close after — must
// answer every in-flight request 200, and only then tear the
// registry down. SIGHUP along the way must hot-reload the fleet
// without ending the lifecycle loop.
func TestHandleSignalsDrainsBeforeClose(t *testing.T) {
	ds := gsgcn.GenerateDataset(gsgcn.DatasetConfig{
		Name: "sig-test", Vertices: 200, TargetEdges: 1500,
		FeatureDim: 8, NumClasses: 3, Homophily: 0.8, NoiseStd: 0.5, Seed: 7,
	})
	ckpt := trainCkpt(t, ds, t.TempDir())
	reg := gsgcn.NewModelRegistry()
	srv, err := reg.Add("m", ds, gsgcn.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}

	// Hold every request in the handler long enough that SIGTERM always
	// catches them mid-flight.
	hold := 150 * time.Millisecond
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(hold)
		reg.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: slow}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	sigs := make(chan os.Signal, 1)
	done := make(chan struct{})
	go handleSignals(sigs, httpSrv, nil, reg, 5*time.Second, done)

	var health struct {
		Version uint64 `json:"version"`
	}
	get := func(path string) (int, uint64) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		health.Version = 0
		_ = json.Unmarshal(body, &health)
		return resp.StatusCode, health.Version
	}
	if code, v := get("/healthz"); code != 200 || v != 1 {
		t.Fatalf("baseline healthz = %d version %d", code, v)
	}

	// SIGHUP: the fleet hot-reloads (version advances) and the
	// lifecycle loop keeps running.
	sigs <- syscall.SIGHUP
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, v := get("/healthz"); v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP did not reload the fleet")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("SIGHUP ended the lifecycle loop")
	default:
	}

	// SIGTERM with requests in flight: every one of them must drain to
	// a 200 — none answered 503 by a prematurely closed registry.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/embed?ids=%d", base, g))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("in-flight request during shutdown: %d %s", resp.StatusCode, body)
			}
		}(g)
	}
	time.Sleep(hold / 3) // let the requests reach the handler
	sigs <- syscall.SIGTERM
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never completed")
	}

	// Only after the drain is the registry actually closed.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/embed?ids=0", nil)
	reg.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("registry after shutdown = %d, want 503", rec.Code)
	}
}

// TestReloadFleetPartialFailure pins the SIGHUP aggregation contract
// at the process level: a fleet where one model's checkpoint is
// corrupt reloads every other model and leaves the broken one serving
// its previous snapshot.
func TestReloadFleetPartialFailure(t *testing.T) {
	ds := gsgcn.GenerateDataset(gsgcn.DatasetConfig{
		Name: "sig-test", Vertices: 200, TargetEdges: 1500,
		FeatureDim: 8, NumClasses: 3, Homophily: 0.8, NoiseStd: 0.5, Seed: 7,
	})
	dir := t.TempDir()
	ckptA := trainCkpt(t, ds, dir)
	ckptB := filepath.Join(dir, "b.ckpt")
	if err := copyFile(ckptA, ckptB); err != nil {
		t.Fatal(err)
	}
	reg := gsgcn.NewModelRegistry()
	defer reg.Close()
	srvA, err := reg.Add("a", ds, gsgcn.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := reg.Add("b", ds, gsgcn.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Load(ckptA); err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.Load(ckptB); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(ckptB, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	reloadFleet(reg)

	stA, stB := srvA.Health(), srvB.Health()
	if stA.Version != 2 {
		t.Errorf("healthy model a version = %d, want 2", stA.Version)
	}
	if stB.Version != 1 {
		t.Errorf("broken model b version = %d, want 1 (previous snapshot)", stB.Version)
	}
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
