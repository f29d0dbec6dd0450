package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
)

// newTestRouter builds a loaded router over the standard test
// dataset/checkpoint.
func newTestRouter(t *testing.T, opts Options, shards int, seed uint64, ckpt string) *Server {
	t.Helper()
	ds := testDataset(t, false)
	rt, err := NewRouter(ds, opts, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	return rt
}

// get fetches url and returns (status, body bytes).
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRouterByteIdenticalExact is the sharding determinism property:
// for every shard count and Workers setting, the scatter-gather
// router's /embed, /predict and exact /topk answers are byte-equal to
// a single-process server's — same JSON, same status, bit for bit.
func TestRouterByteIdenticalExact(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	ref := NewServer(ds, Options{Workers: 2})
	defer ref.Close()
	if _, err := ref.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()

	paths := []string{
		"/embed?ids=0,7,42,299",
		"/embed?ids=5",
		"/predict?ids=0,7,42,299",
		"/predict?ids=123,124,125",
		"/topk?id=7&k=10",
		"/topk?id=0&k=25&mode=exact",
		"/topk?id=299&k=1",
		// Error surfaces must match too.
		"/embed?ids=300",
		"/embed?ids=+3",
		"/topk?id=7&k=0",
		"/topk?id=nope",
	}
	want := make(map[string]string)
	wantCode := make(map[string]int)
	for _, p := range paths {
		code, body := get(t, refTS.URL+p)
		want[p] = string(body)
		wantCode[p] = code
	}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2} {
			rt := newTestRouter(t, Options{Workers: workers}, shards, 99, ckpt)
			ts := httptest.NewServer(rt)
			for _, p := range paths {
				code, body := get(t, ts.URL+p)
				if code != wantCode[p] {
					t.Errorf("shards=%d workers=%d %s: status %d, single-process %d",
						shards, workers, p, code, wantCode[p])
				}
				if string(body) != want[p] {
					t.Errorf("shards=%d workers=%d %s:\n router %s\n single %s",
						shards, workers, p, body, want[p])
				}
			}
			ts.Close()
			rt.Close()
		}
	}

	// POST bodies route through the same scatter.
	for _, shards := range []int{2, 4} {
		rt := newTestRouter(t, Options{Workers: 2}, shards, 99, ckpt)
		ts := httptest.NewServer(rt)
		for _, ep := range []string{"/embed", "/predict"} {
			body := `{"ids":[3,1,250,77]}`
			refResp, err := http.Post(refTS.URL+ep, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var refBuf bytes.Buffer
			refBuf.ReadFrom(refResp.Body)
			refResp.Body.Close()
			rtResp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var rtBuf bytes.Buffer
			rtBuf.ReadFrom(rtResp.Body)
			rtResp.Body.Close()
			if refBuf.String() != rtBuf.String() {
				t.Errorf("shards=%d POST %s: router %s, single %s", shards, ep, rtBuf.String(), refBuf.String())
			}
		}
		ts.Close()
		rt.Close()
	}
}

// TestRouterANNModes pins the ann-mode contract: at shards=1 the
// router's HNSW answers are byte-equal to the single process (same
// index over the same rows), and at any fixed shard count two
// independently built fleets answer identically (per-shard indexes
// are deterministic) even though the answer may differ from the
// single-process one.
func TestRouterANNModes(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	opts := Options{Workers: 2, ANN: true, ANNEf: 24}

	ref := NewServer(ds, opts)
	defer ref.Close()
	if _, err := ref.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()

	paths := []string{
		"/topk?id=7&k=5", // mode auto resolves to ann
		"/topk?id=42&k=8&mode=ann&ef=32",
		"/topk?id=0&k=299",          // beam covers the table: exact fallback
		"/topk?id=5&k=3&mode=exact", // per-request exact stays exact
	}

	rt1 := newTestRouter(t, opts, 1, 7, ckpt)
	defer rt1.Close()
	ts1 := httptest.NewServer(rt1)
	defer ts1.Close()
	for _, p := range paths {
		_, want := get(t, refTS.URL+p)
		_, got := get(t, ts1.URL+p)
		if string(got) != string(want) {
			t.Errorf("shards=1 %s:\n router %s\n single %s", p, got, want)
		}
	}

	rtA := newTestRouter(t, opts, 3, 7, ckpt)
	defer rtA.Close()
	rtB := newTestRouter(t, opts, 3, 7, ckpt)
	defer rtB.Close()
	tsA := httptest.NewServer(rtA)
	defer tsA.Close()
	tsB := httptest.NewServer(rtB)
	defer tsB.Close()
	for _, p := range paths {
		_, a := get(t, tsA.URL+p)
		_, b := get(t, tsB.URL+p)
		if string(a) != string(b) {
			t.Errorf("shards=3 %s: two identically configured fleets disagree:\n %s\n %s", p, a, b)
		}
	}
}

// TestScatterMergeTies drives the scatter merge directly over a
// synthetic table with heavy score ties (duplicated rows): at every
// shard count the merged per-shard exact scans must equal the
// whole-table scan entry for entry — the ann.Before total order breaks
// every tie by id, independent of which shard offered the candidate
// first.
func TestScatterMergeTies(t *testing.T) {
	const n, dim = 64, 4
	emb := mat.New(n, dim)
	norms := make([]float64, n)
	for v := 0; v < n; v++ {
		row := emb.Row(v)
		// Only 8 distinct directions: every score ties across ~8 ids.
		g := v % 8
		for j := 0; j < dim; j++ {
			row[j] = float64((g+j)%5) + 1
		}
		s := 0.0
		for _, x := range row {
			s += x * x
		}
		norms[v] = math.Sqrt(s)
	}
	whole := &State{Emb: emb, norms: norms, total: n}
	const id, k = 3, 12
	q, qn := emb.Row(id), norms[id]
	want := scanVec(whole, q, qn, id, k, 1)

	for _, shards := range []int{1, 2, 3, 4, 7} {
		sm := partition.ShardMap{Shards: shards, Seed: 5}
		for _, workers := range []int{1, 3} {
			parts := make([][]Neighbor, shards)
			for s := 0; s < shards; s++ {
				owned := sm.Owned(n, s)
				sub, subNorms := compactRows(emb, norms, owned)
				st := &State{Emb: sub, norms: subNorms, total: n, owned: owned}
				parts[s] = scanVec(st, q, qn, id, k, workers)
			}
			got := mergeTopK(parts, k)
			if len(got) != len(want) {
				t.Fatalf("shards=%d workers=%d: %d neighbors, want %d", shards, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("shards=%d workers=%d: neighbor %d = %+v, want %+v", shards, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRouterShardDownDegraded pins the degraded-not-dead contract:
// stopping one shard keeps /healthz at HTTP 200 (status "degraded",
// the down shard visible in the detail), leaves every other shard's
// vertices answering byte-identically, fails the down shard's
// vertices with a retryable 503, marks scatter /topk answers
// degraded, and restores everything — including byte-identical topk —
// when the shard returns.
func TestRouterShardDownDegraded(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	rt := newTestRouter(t, Options{Workers: 2}, 3, 42, ckpt)
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	sm := partition.ShardMap{Shards: 3, Seed: 42}
	// Find one vertex per shard.
	byShard := make([]int, 3)
	for i := range byShard {
		byShard[i] = -1
	}
	for v := 0; v < ds.G.NumVertices(); v++ {
		if s := sm.Assign(int32(v)); byShard[s] == -1 {
			byShard[s] = v
		}
	}
	liveID, deadID := byShard[0], byShard[1]

	liveEmbed := fmt.Sprintf("/embed?ids=%d", liveID)
	liveTopk := fmt.Sprintf("/topk?id=%d&k=5", liveID)
	_, wantLive := get(t, ts.URL+liveEmbed)
	_, wantTopk := get(t, ts.URL+liveTopk)

	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthy healthz = %d", code)
	}

	// Kill shard 1 via the HTTP surface.
	resp, err := http.Post(ts.URL+"/shards/1/stop", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stop shard: %d", resp.StatusCode)
	}

	// healthz: still 200, degraded, shard 1 down.
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 {
		t.Errorf("degraded healthz = %d, want 200 (degraded-not-dead)", code)
	}
	var health routerHealth
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.ShardsDown != 1 {
		t.Errorf("degraded healthz = %+v", health)
	}
	if health.ShardDetail[1].Status != "down" || health.ShardDetail[0].Status != "ok" {
		t.Errorf("shard detail = %+v", health.ShardDetail)
	}

	// Unaffected vertex: still answers, byte-identical.
	code, body = get(t, ts.URL+liveEmbed)
	if code != 200 || string(body) != string(wantLive) {
		t.Errorf("live-shard embed during outage: %d %s, want 200 %s", code, body, wantLive)
	}

	// Dead shard's vertex: retryable 503, on every endpoint.
	for _, p := range []string{
		fmt.Sprintf("/embed?ids=%d", deadID),
		fmt.Sprintf("/predict?ids=%d", deadID),
		fmt.Sprintf("/topk?id=%d&k=5", deadID),
	} {
		if code, _ := get(t, ts.URL+p); code != http.StatusServiceUnavailable {
			t.Errorf("%s during owner outage = %d, want 503", p, code)
		}
	}

	// A mixed batch touching the dead shard fails whole: no partial
	// point-query answers.
	if code, _ := get(t, ts.URL+fmt.Sprintf("/embed?ids=%d,%d", liveID, deadID)); code != http.StatusServiceUnavailable {
		t.Errorf("mixed batch = %d, want 503", code)
	}

	// topk from a live vertex: answers 200 but flagged degraded.
	code, body = get(t, ts.URL+liveTopk)
	if code != 200 {
		t.Fatalf("live topk during outage = %d", code)
	}
	var tk TopKResult
	if err := json.Unmarshal(body, &tk); err != nil {
		t.Fatal(err)
	}
	if !tk.Degraded {
		t.Error("topk during outage not marked degraded")
	}

	// Restart: everything back, byte-identical (the degraded answer
	// must not have poisoned the cache).
	resp, err = http.Post(ts.URL+"/shards/1/start", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	code, body = get(t, ts.URL+"/healthz")
	var restored routerHealth
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Status != "ok" || restored.ShardsDown != 0 {
		t.Errorf("restored healthz = %+v", restored)
	}
	_, body = get(t, ts.URL+liveTopk)
	if string(body) != string(wantTopk) {
		t.Errorf("restored topk = %s, want %s", body, wantTopk)
	}
	if code, _ := get(t, ts.URL+fmt.Sprintf("/embed?ids=%d", deadID)); code != 200 {
		t.Errorf("restored dead-shard embed = %d", code)
	}
}

// TestRouterWarmStart pins the sharded warm path: per-shard artifacts
// built offline by BuildShardSnapshots warm every shard (no full
// recompute) and answer byte-identically to a cold fleet.
func TestRouterWarmStart(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const shards, seed = 3, 11
	opts := Options{Workers: 2, ANN: true, ANNEf: 16}
	snaps, err := BuildShardSnapshots(ds, m, opts, true, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	base := dir + "/model.art"
	for i, snap := range snaps {
		if snap.Meta.Shard != i || snap.Meta.Shards != shards || snap.Meta.ShardSeed != seed {
			t.Fatalf("shard %d meta = %+v", i, snap.Meta)
		}
		if _, err := artifact.WriteFile(artifact.ShardPath(base, i, shards), snap); err != nil {
			t.Fatal(err)
		}
	}

	cold := newTestRouter(t, opts, shards, seed, ckpt)
	defer cold.Close()
	warmOpts := opts
	warmOpts.ArtifactPath = base
	warm := newTestRouter(t, warmOpts, shards, seed, ckpt)
	defer warm.Close()

	for i := 0; i < shards; i++ {
		st, err := warm.Shard(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !st.WarmStart {
			t.Errorf("shard %d did not warm-start: %q", i, st.WarmNote)
		}
		if !st.IndexReady() {
			t.Errorf("shard %d did not adopt the persisted index", i)
		}
	}

	coldTS := httptest.NewServer(cold)
	defer coldTS.Close()
	warmTS := httptest.NewServer(warm)
	defer warmTS.Close()
	for _, p := range []string{
		"/embed?ids=0,99,299", "/predict?ids=5,250",
		"/topk?id=7&k=10&mode=exact", "/topk?id=7&k=5&mode=ann",
	} {
		_, want := get(t, coldTS.URL+p)
		_, got := get(t, warmTS.URL+p)
		if string(got) != string(want) {
			t.Errorf("%s: warm %s, cold %s", p, got, want)
		}
	}
}

// TestRouterShardArtifactMismatch pins artifact safety on the sharded
// path: a shard offered another shard's artifact (or one built under
// a different seed) must reject it and fall back to the full compute
// — wrong rows can never be served.
func TestRouterShardArtifactMismatch(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	opts := Options{Workers: 1}
	snaps, err := BuildShardSnapshots(ds, m, opts, false, shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := dir + "/swap.art"
	// Swap the two shards' files.
	if _, err := artifact.WriteFile(artifact.ShardPath(base, 0, shards), snaps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.WriteFile(artifact.ShardPath(base, 1, shards), snaps[0]); err != nil {
		t.Fatal(err)
	}
	swapOpts := opts
	swapOpts.ArtifactPath = base
	rt := newTestRouter(t, swapOpts, shards, 1, ckpt)
	defer rt.Close()
	for i := 0; i < shards; i++ {
		st, err := rt.Shard(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if st.WarmStart {
			t.Errorf("shard %d adopted a foreign shard's artifact", i)
		}
	}
	// Answers are still correct: cold compute took over.
	ref := NewServer(ds, Options{Workers: 1})
	defer ref.Close()
	if _, err := ref.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	defer refTS.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()
	_, want := get(t, refTS.URL+"/embed?ids=0,1,2,3")
	_, got := get(t, ts.URL+"/embed?ids=0,1,2,3")
	if string(got) != string(want) {
		t.Errorf("post-fallback answers diverge: %s vs %s", got, want)
	}
}

// TestRouterPartlyWarmSaysWhy: on a fleet whose shard 2 has no
// artifact, shards 0 and 1 warm-start and shard 2 computes cold. Every
// status surface — Server.Health (what gsgcn-serve logs), /healthz,
// /models/{name} and /reload — says the fleet is not warm and names
// the missing file, whichever shard fell back.
func TestRouterPartlyWarmSaysWhy(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const shards, seed = 3, 11
	opts := Options{Workers: 1}
	snaps, err := BuildShardSnapshots(ds, m, opts, false, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	opts.ArtifactPath = dir + "/model.art"
	for i, snap := range snaps[:2] {
		if _, err := artifact.WriteFile(artifact.ShardPath(opts.ArtifactPath, i, shards), snap); err != nil {
			t.Fatal(err)
		}
	}
	missing := artifact.ShardPath(opts.ArtifactPath, 2, shards)

	reg := NewRegistry()
	defer reg.Close()
	srv, err := reg.AddSharded("fleet", ds, opts, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if st, _ := srv.Shard(i).Snapshot(); st.WarmStart != (i < 2) {
			t.Fatalf("shard %d warm_start = %v: %q", i, st.WarmStart, st.WarmNote)
		}
	}
	check := func(where string, warm bool, note string) {
		t.Helper()
		if warm || !strings.Contains(note, missing) {
			t.Errorf("%s: warm_start %v, warm_note %q; want false and a note naming %s", where, warm, note, missing)
		}
	}
	h := srv.Health()
	check("Server.Health", h.WarmStart, h.WarmNote)
	ts := httptest.NewServer(reg)
	defer ts.Close()
	var rh routerHealth
	if code := getJSON(t, ts.URL+"/healthz", &rh); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	check("/healthz", rh.WarmStart, rh.WarmNote)
	var ms modelStatus
	if code := getJSON(t, ts.URL+"/models/fleet", &ms); code != 200 {
		t.Fatalf("/models/fleet = %d", code)
	}
	check("/models/fleet", ms.WarmStart, ms.WarmNote)
	resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rb reloadBody
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	check("/reload", rb.WarmStart, rb.WarmNote)
}

// TestRouterReloadEndpoint exercises /reload on a fleet: a new
// checkpoint advances every shard in lockstep, and a reload that
// retargets the artifact base points every shard at its own ShardPath.
func TestRouterReloadEndpoint(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)
	rt := newTestRouter(t, Options{Workers: 1}, 2, 3, ckptA)
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	body := fmt.Sprintf(`{"path": %q}`, ckptB)
	resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rb reloadBody
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rb.Version != 2 {
		t.Errorf("reload version = %d, want 2", rb.Version)
	}
	for i := 0; i < rt.Shards(); i++ {
		st, err := rt.Shard(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != 2 {
			t.Errorf("shard %d at version %d after fleet reload", i, st.Version)
		}
	}

	// Artifact retarget: every shard's source becomes its ShardPath.
	resp, err = http.Post(ts.URL+"/reload", "application/json",
		strings.NewReader(`{"artifact": "/tmp/nope.art"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rt.mu.Lock()
	got := rt.artBase
	rt.mu.Unlock()
	if got != "/tmp/nope.art" {
		t.Errorf("artifact base = %q, want /tmp/nope.art", got)
	}
	for i := 0; i < rt.Shards(); i++ {
		want := artifact.ShardPath("/tmp/nope.art", i, rt.Shards())
		if st, _ := rt.Shard(i).Snapshot(); !strings.Contains(st.WarmNote, want) {
			t.Errorf("shard %d warm note = %q, want one naming %q", i, st.WarmNote, want)
		}
	}
}

// TestInstallsDoNotInterleave: two loads of one fleet run one after the
// other, never shard by shard. With shard 1's snapshot build held, a
// load of A installs on shard 0 and waits; a load of B started then
// must leave shard 0 alone until A is done, and both end with every
// shard serving B at one version.
func TestInstallsDoNotInterleave(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckptA := trainAndSave(t, ds, 1, dir)
	ckptB := trainAndSave(t, ds, 2, dir)
	rt, err := NewRouter(ds, Options{Workers: 1}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	version := func(i int) uint64 {
		st, err := rt.Shard(i).Snapshot()
		if err != nil {
			return 0
		}
		return st.Version
	}

	rt.shards[1].eng.reloadMu.Lock()
	release := sync.OnceFunc(rt.shards[1].eng.reloadMu.Unlock)
	defer release()
	errs := make(chan error, 2)
	load := func(path string) {
		_, err := rt.Load(path)
		errs <- err
	}
	go load(ckptA)
	for give := time.Now().Add(30 * time.Second); version(0) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatal("load A never installed on shard 0")
		}
	}
	go load(ckptB)
	for until := time.Now().Add(200 * time.Millisecond); time.Now().Before(until); time.Sleep(time.Millisecond) {
		if v := version(0); v != 1 {
			t.Fatalf("shard 0 moved to version %d while load A waited on shard 1", v)
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	mB, err := core.LoadModelFile(ckptB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rt.Shards(); i++ {
		st, err := rt.Shard(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if st.Version != 2 || st.Model.WeightsChecksum() != mB.WeightsChecksum() {
			t.Errorf("shard %d ended at version %d, weights %x; want version 2 serving B (%x)",
				i, st.Version, st.Model.WeightsChecksum(), mB.WeightsChecksum())
		}
	}
}

// TestRegistrySharded pins registry integration: a sharded model
// answers through /models/{name}/…, exposes the shard operations,
// reports its shard count in the listing, and unsharded models reject
// /shards cleanly.
func TestRegistrySharded(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	reg := NewRegistry()
	defer reg.Close()
	plain, err := reg.Add("plain", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	rt, err := reg.AddSharded("fleet", ds, Options{Workers: 1}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	// The sharded model answers byte-identically to the plain one.
	_, want := get(t, ts.URL+"/models/plain/embed?ids=0,9,200")
	_, got := get(t, ts.URL+"/models/fleet/embed?ids=0,9,200")
	if string(got) != string(want) {
		t.Errorf("sharded model diverges: %s vs %s", got, want)
	}

	// Shard operations exist on the fleet…
	code, body := get(t, ts.URL+"/models/fleet/shards")
	if code != 200 {
		t.Fatalf("fleet /shards = %d", code)
	}
	var sb shardsBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Shards != 2 || sb.ShardSeed != 9 || len(sb.Detail) != 2 {
		t.Errorf("shards body = %+v", sb)
	}
	// …and 404 on the plain model.
	if code, _ := get(t, ts.URL+"/models/plain/shards"); code != http.StatusNotFound {
		t.Errorf("plain /shards = %d, want 404", code)
	}

	// The listing reports shard counts (and omits them when unsharded).
	var list listBody
	if code := getJSON(t, ts.URL+"/models", &list); code != 200 {
		t.Fatal("list failed")
	}
	for _, ms := range list.Models {
		switch ms.Name {
		case "fleet":
			if ms.Shards != 2 {
				t.Errorf("fleet listed with shards=%d", ms.Shards)
			}
		case "plain":
			if ms.Shards != 0 {
				t.Errorf("plain listed with shards=%d", ms.Shards)
			}
		}
	}

	// Stop a shard through the registry spelling; the fleet degrades,
	// the plain model is untouched.
	resp, err := http.Post(ts.URL+"/models/fleet/shards/0/stop", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var ms modelStatus
	if code := getJSON(t, ts.URL+"/models/fleet/healthz", &ms); code != 200 {
		t.Fatal("fleet healthz failed")
	}
	if ms.Status != "degraded" {
		t.Errorf("fleet status = %q, want degraded", ms.Status)
	}
	var plainStatus modelStatus
	getJSON(t, ts.URL+"/models/plain/healthz", &plainStatus)
	if plainStatus.Status != "ok" {
		t.Errorf("plain status = %q after fleet shard stop", plainStatus.Status)
	}
}
