package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
)

// getBody fetches url and returns (status, raw body bytes).
func getBody(tb testing.TB, url string) (int, []byte) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestRegistryBitIdenticalToSingleModelServers is the tentpole's
// acceptance test: two models served from one registry answer every
// endpoint byte-for-byte identically to two dedicated single-model
// processes over the same checkpoints — and the registry's legacy
// unprefixed routes are byte-compatible with the plain single-model
// Server (they are the default model's own handlers).
func TestRegistryBitIdenticalToSingleModelServers(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)
	optsA := Options{Workers: 2}
	optsB := Options{Workers: 2, ANN: true, ANNEf: 16}

	// Two dedicated single-model servers: the PR 2–4 deployment.
	soloA := NewServer(ds, optsA)
	defer soloA.Close()
	soloB := NewServer(ds, optsB)
	defer soloB.Close()
	tsA := httptest.NewServer(soloA)
	defer tsA.Close()
	tsB := httptest.NewServer(soloB)
	defer tsB.Close()
	if _, err := soloA.Load(ckptA); err != nil {
		t.Fatal(err)
	}
	if _, err := soloB.Load(ckptB); err != nil {
		t.Fatal(err)
	}

	// The same two checkpoints behind one registry.
	reg := NewRegistry()
	defer reg.Close()
	regA, err := reg.Add("a", ds, optsA)
	if err != nil {
		t.Fatal(err)
	}
	regB, err := reg.Add("b", ds, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Load(ckptA); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Load(ckptB); err != nil {
		t.Fatal(err)
	}
	tsReg := httptest.NewServer(reg)
	defer tsReg.Close()

	queries := []string{
		"/embed?ids=0,1,7",
		"/predict?ids=0,3",
		"/topk?id=0&k=5",
		"/topk?id=4&k=3&mode=exact",
		"/topk?id=2&k=4&mode=ann&ef=24",
		"/healthz",
	}
	compare := func(wantURL, gotURL, label string) {
		t.Helper()
		wc, want := getBody(t, wantURL)
		gc, got := getBody(t, gotURL)
		if wc != 200 || gc != 200 {
			t.Fatalf("%s: status %d vs %d", label, wc, gc)
		}
		if string(want) != string(got) {
			t.Errorf("%s: registry answer differs from single-model server:\n solo: %s\n reg:  %s",
				label, want, got)
		}
	}
	for _, q := range queries {
		if strings.HasPrefix(q, "/healthz") {
			// Health bodies carry batcher stats that depend on query
			// counts; compare them last, after identical query loads.
			continue
		}
		compare(tsA.URL+q, tsReg.URL+"/models/a"+q, "model a "+q)
		compare(tsB.URL+q, tsReg.URL+"/models/b"+q, "model b "+q)
		// Legacy unprefixed routes answer from the default model (a).
		compare(tsA.URL+q, tsReg.URL+q, "legacy "+q)
	}
	// The loop above sent every query twice to solo A (once per
	// compare) and twice to registry model a (prefixed + legacy), so
	// even the batcher stats in the legacy /healthz body must agree
	// byte-for-byte.
	compare(tsA.URL+"/healthz", tsReg.URL+"/healthz", "legacy /healthz")
}

// TestRegistryRouting pins the multi-model HTTP surface: the /models
// listing, per-model status, per-model reload isolation, and clean
// JSON 404s for unknown names and endpoints.
func TestRegistryRouting(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)

	reg := NewRegistry()
	defer reg.Close()
	srvA, err := reg.Add("prod", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := reg.Add("canary", ds, Options{Workers: 1, ANN: true})
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

	if names := reg.Names(); len(names) != 2 || names[0] != "prod" || names[1] != "canary" {
		t.Errorf("Names() = %v, want registration order [prod canary]", names)
	}
	if opts := srvB.shards[0].eng.opts; !opts.ANN || opts.Workers != 1 {
		t.Errorf("canary options = %+v, want resolved ANN config", opts)
	}

	// Invalid registrations are rejected.
	if _, err := reg.Add("prod", ds, Options{}); err == nil {
		t.Error("duplicate model name registered")
	}
	for _, bad := range []string{"", "a/b", "with space", ".."} {
		if _, err := reg.Add(bad, ds, Options{}); err == nil {
			t.Errorf("invalid model name %q registered", bad)
		}
	}

	// /models lists both, sorted, with the default marked.
	var list listBody
	if code := getJSON(t, ts.URL+"/models", &list); code != 200 {
		t.Fatalf("/models = %d", code)
	}
	if list.Default != "prod" {
		t.Errorf("default = %q, want prod (first registered)", list.Default)
	}
	if len(list.Models) != 2 || list.Models[0].Name != "canary" || list.Models[1].Name != "prod" {
		t.Fatalf("listing = %+v, want canary,prod", list.Models)
	}
	for _, ms := range list.Models {
		if ms.Status != "ok" || ms.Version != 1 {
			t.Errorf("model %s status %q version %d, want ok/1", ms.Name, ms.Status, ms.Version)
		}
		if ms.Index != "lazy" {
			t.Errorf("model %s index %q before any ANN query, want lazy", ms.Name, ms.Index)
		}
	}
	if !list.Models[1].Default || list.Models[0].Default {
		t.Errorf("default flags wrong: %+v", list.Models)
	}
	if list.Models[1].Checkpoint != ckptA {
		t.Errorf("prod checkpoint = %q, want %q", list.Models[1].Checkpoint, ckptA)
	}

	// An ANN query makes canary's index resident; /models must see it.
	if code, _ := getBody(t, ts.URL+"/models/canary/topk?id=0&k=3&mode=ann"); code != 200 {
		t.Fatalf("canary ann topk = %d", code)
	}
	var st modelStatus
	if code := getJSON(t, ts.URL+"/models/canary/healthz", &st); code != 200 {
		t.Fatalf("canary healthz = %d", code)
	}
	if st.Index != "built" {
		t.Errorf("canary index after ANN query = %q, want built", st.Index)
	}
	if st.Name != "canary" || st.Default {
		t.Errorf("canary status = %+v", st)
	}

	// SetDefault retargets the legacy routes.
	if err := reg.SetDefault("canary"); err != nil {
		t.Fatal(err)
	}
	var health Health
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatal("legacy healthz after SetDefault")
	}
	stB, _ := srvB.shards[0].eng.Snapshot()
	if health.ModelVersion != stB.ModelVersion {
		t.Errorf("legacy healthz model_version = %d, want canary's %d", health.ModelVersion, stB.ModelVersion)
	}
	if err := reg.SetDefault("nope"); err == nil {
		t.Error("SetDefault accepted an unknown model")
	}

	// Per-model reload bumps only that model's version.
	status, _, _ := doReq(t, "POST", ts.URL+"/models/prod/reload", "")
	if status != 200 {
		t.Fatalf("prod reload = %d", status)
	}
	stA, _ := srvA.shards[0].eng.Snapshot()
	stB, _ = srvB.shards[0].eng.Snapshot()
	if stA.Version != 2 || stB.Version != 1 {
		t.Errorf("versions after prod reload = %d/%d, want 2/1", stA.Version, stB.Version)
	}

	// Unknown names and endpoints: clean JSON 404s.
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/models/nope/embed?ids=0", http.StatusNotFound},
		{"POST", "/models/nope/reload", http.StatusNotFound},
		{"GET", "/models/prod/nope", http.StatusNotFound},
		{"GET", "/models/prod/healthz/extra", http.StatusNotFound},
		{"POST", "/models", http.StatusMethodNotAllowed},
		{"POST", "/models/prod/healthz", http.StatusMethodNotAllowed},
		{"DELETE", "/models/prod", http.StatusMethodNotAllowed},
	} {
		status, msg, isJSON := doReq(t, tc.method, ts.URL+tc.path, "")
		if status != tc.want || !isJSON || msg == "" {
			t.Errorf("%s %s = %d json=%v msg=%q, want %d with JSON error",
				tc.method, tc.path, status, isJSON, msg, tc.want)
		}
	}

	// Bare /models/{name} serves the same status body as …/healthz.
	c1, b1 := getBody(t, ts.URL+"/models/prod")
	c2, b2 := getBody(t, ts.URL+"/models/prod/healthz")
	if c1 != 200 || c2 != 200 || string(b1) != string(b2) {
		t.Errorf("/models/prod (%d) and /models/prod/healthz (%d) disagree: %s vs %s", c1, c2, b1, b2)
	}

	// A registered-but-unloaded model: status "loading", index "none",
	// queries 503, reload-without-path a clean 500.
	if _, err := reg.Add("empty", ds, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var est modelStatus
	if code := getJSON(t, ts.URL+"/models/empty", &est); code != 200 {
		t.Fatalf("unloaded model status = %d", code)
	}
	if est.Status != "loading" || est.Index != "none" || est.Version != 0 {
		t.Errorf("unloaded model status = %+v, want loading/none/v0", est)
	}
	if status, _, _ := doReq(t, "GET", ts.URL+"/models/empty/embed?ids=0", ""); status != http.StatusServiceUnavailable {
		t.Errorf("query against unloaded model = %d, want 503", status)
	}
	if status, msg, isJSON := doReq(t, "POST", ts.URL+"/models/empty/reload", ""); status != http.StatusInternalServerError || !isJSON || msg == "" {
		t.Errorf("pathless reload of unloaded model = %d %q (json %v), want 500", status, msg, isJSON)
	}
}

// TestRegistryEmptyAndDatasetSharing covers the registry edges: no
// models yet (legacy routes 503 with a JSON error), and a model serves
// exactly the dataset it was registered with — one pointer given to
// two models is one in-memory instance, and an equal-content copy
// stays its own.
func TestRegistryEmptyAndDatasetSharing(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()
	status, msg, isJSON := doReq(t, "GET", ts.URL+"/embed?ids=0", "")
	if status != http.StatusServiceUnavailable || !isJSON || msg == "" {
		t.Errorf("empty registry legacy route = %d json=%v %q, want 503", status, isJSON, msg)
	}
	var list listBody
	if code := getJSON(t, ts.URL+"/models", &list); code != 200 || len(list.Models) != 0 || list.Default != "" {
		t.Errorf("empty listing = %d %+v", code, list)
	}

	cfg := datasets.Config{
		Name: "shared", Vertices: 120, TargetEdges: 600,
		FeatureDim: 6, NumClasses: 3, Seed: 11,
	}
	ds1, ds2 := datasets.Generate(cfg), datasets.Generate(cfg)
	for i, ds := range []*datasets.Dataset{ds1, ds1, ds2} {
		srv, err := reg.Add(fmt.Sprintf("m%d", i+1), ds, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if srv.shards[0].eng.ds != ds {
			t.Errorf("m%d does not serve the dataset it was registered with", i+1)
		}
	}
}

// TestHealthzReflectsLatestReload pins the fix for the stale
// warm-start report: /healthz (and the /reload response itself) must
// describe the snapshot installed by the most recent reload — a
// reload that gains an artifact flips warm_start on, and one that
// drops it flips it back off.
func TestHealthzReflectsLatestReload(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := BuildSnapshot(ds, m, Options{Workers: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	artPath := filepath.Join(dir, "m.art")
	if _, err := artifact.WriteFile(artPath, snap); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	defer reg.Close()
	srv, err := reg.Add("m", ds, Options{Workers: 2}) // no artifact configured
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	warmOf := func() (bool, string, uint64) {
		t.Helper()
		var st modelStatus
		if code := getJSON(t, ts.URL+"/models/m/healthz", &st); code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		return st.WarmStart, st.Index, st.Version
	}
	if warm, _, v := warmOf(); warm || v != 1 {
		t.Fatalf("initial load: warm=%v version=%d, want cold v1", warm, v)
	}

	// Reload retargeting the warm source: healthz must flip to warm
	// and the artifact's index must be resident without any ANN query.
	post := func(body string) reloadBody {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/models/m/reload", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("reload %s = %d: %s", body, resp.StatusCode, raw)
		}
		var rb reloadBody
		if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	rb := post(fmt.Sprintf(`{"artifact": %q}`, artPath))
	if !rb.WarmStart || rb.WarmNote != "" {
		t.Fatalf("reload-with-artifact response = %+v, want warm", rb)
	}
	if warm, index, v := warmOf(); !warm || index != "built" || v != 2 {
		t.Fatalf("after artifact reload: warm=%v index=%q version=%d, want warm/built/2", warm, index, v)
	}

	// A plain reload keeps the retargeted source (unchanged artifact →
	// still warm, tables reused).
	if rb := post(""); !rb.WarmStart {
		t.Fatalf("plain reload after retarget = %+v, want still warm", rb)
	}
	if warm, _, v := warmOf(); !warm || v != 3 {
		t.Fatalf("after plain reload: warm=%v version=%d", warm, v)
	}

	// A failed reload must roll the artifact retarget back: the 500
	// leaves snapshot, checkpoint path and warm-start source all
	// untouched — whether the checkpoint cannot be read or it reads but
	// does not fit the dataset.
	misfit := filepath.Join(dir, "misfit.ckpt")
	wide := datasets.Generate(datasets.Config{
		Name: "wide", Vertices: 50, TargetEdges: 200,
		FeatureDim: ds.FeatureDim() + 1, NumClasses: ds.NumClasses, Seed: 3,
	})
	if err := testModel(t, wide, 2).SaveFile(misfit); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"/nope.ckpt", misfit} {
		status, _, _ := doReq(t, "POST", ts.URL+"/models/m/reload",
			fmt.Sprintf(`{"path": %q, "artifact": "/nope.art"}`, bad))
		if status != http.StatusInternalServerError {
			t.Fatalf("reload of %s = %d, want 500", bad, status)
		}
		var ms modelStatus
		if getJSON(t, ts.URL+"/models/m", &ms); ms.Artifact != artPath || ms.Checkpoint != ckpt || ms.Version != 3 {
			t.Errorf("failed reload of %s moved the model: artifact %q, checkpoint %q, version %d; want %q, %q, 3",
				bad, ms.Artifact, ms.Checkpoint, ms.Version, artPath, ckpt)
		}
	}
	if rb := post(""); !rb.WarmStart {
		t.Fatalf("plain reload after failed retarget = %+v, want still warm", rb)
	}
	if warm, _, v := warmOf(); !warm || v != 4 {
		t.Fatalf("after failed retarget + plain reload: warm=%v version=%d", warm, v)
	}

	// Dropping the artifact must flip healthz back to cold — the old
	// staleness bug was reporting the initial load's warm state
	// forever.
	if rb := post(`{"artifact": ""}`); rb.WarmStart {
		t.Fatalf("reload dropping the artifact = %+v, want cold", rb)
	}
	if warm, _, v := warmOf(); warm || v != 5 {
		t.Fatalf("after dropping artifact: warm=%v version=%d, want cold v5", warm, v)
	}
}
