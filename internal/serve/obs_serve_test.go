package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/obs"
	"gsgcn/internal/partition"
	"gsgcn/internal/wire"
)

// scrape fetches url and returns the exposition body, failing on a
// non-200 or a wrong content type.
func scrape(t *testing.T, url string) string {
	t.Helper()
	status, raw := getBody(t, url)
	if status != http.StatusOK {
		t.Fatalf("scrape %s: status %d: %s", url, status, raw)
	}
	return string(raw)
}

// TestMetricsExpositionAndScoping pins the fleet scrape surface: the
// registry's bare /metrics carries every expected family labeled by
// model, while /models/{name}/metrics holds exactly that model's
// series. The series it reads back are what the drive below did: a
// framed-TCP frame billed to the wire transport, a cold model and a
// fleet warm-started from its shard artifacts (index included), a
// stopped shard, and the one query that shard refused.
func TestMetricsExpositionAndScoping(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	const shards, seed = 2, 9
	fleetOpts := Options{Workers: 1, ANN: true}
	snaps, err := BuildShardSnapshots(ds, m, fleetOpts, true, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	base := dir + "/fleet.art"
	for i, snap := range snaps {
		if _, err := artifact.WriteFile(artifact.ShardPath(base, i, shards), snap); err != nil {
			t.Fatal(err)
		}
	}

	reg := NewRegistry()
	defer reg.Close()
	srvA, err := reg.Add("prod", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	fleetOpts.ArtifactPath = base
	fleet, err := reg.AddSharded("fleet", ds, fleetOpts, shards, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go reg.ServeWire(ln)

	// Drive every metric family at least once.
	for _, q := range []string{"/models/prod/embed?ids=0,1", "/models/prod/topk?id=0&k=3", "/models/prod/nope"} {
		if status, _ := getBody(t, ts.URL+q); status == 0 {
			t.Fatal("unreachable")
		}
	}
	c := dialWire(t, ln.Addr().String())
	c.send(&wire.EmbedRequest{Model: "prod", IDs: []int{2}})
	if em, ok := c.recv().(*wire.EmbedResponse); !ok || len(em.Vectors) != 1 {
		t.Fatalf("embed frame answered %#v", em)
	}
	if status, _, raw := fetch(t, http.MethodPost, ts.URL+"/models/fleet/shards/1/stop", nil); status != http.StatusOK {
		t.Fatalf("stop shard 1: %d %s", status, raw)
	}
	down := scrape(t, ts.URL+"/metrics")
	if !strings.Contains(down, `gsgcn_degraded_queries_total{model="fleet"} 0`) {
		t.Error("the degraded-query counter moved before any query reached the stopped shard")
	}
	sm := partition.ShardMap{Shards: shards, Seed: seed}
	dead := 0
	for sm.Assign(int32(dead)) != 1 {
		dead++
	}
	if status, _ := getBody(t, fmt.Sprintf("%s/models/fleet/embed?ids=%d", ts.URL, dead)); status != http.StatusServiceUnavailable {
		t.Fatalf("embed of stopped shard 1's vertex %d: status %d, want 503", dead, status)
	}

	global := scrape(t, ts.URL+"/metrics")
	for _, family := range []string{
		"gsgcn_http_requests_total",
		"gsgcn_http_request_duration_seconds",
		"gsgcn_batcher_queue_depth",
		"gsgcn_batcher_batches_total",
		"gsgcn_batcher_queries_total",
		"gsgcn_batcher_batch_size",
		"gsgcn_batcher_flush_duration_seconds",
		"gsgcn_snapshot_version",
		"gsgcn_snapshot_warm_start",
		"gsgcn_index_resident",
		"gsgcn_shard_up",
		"gsgcn_degraded_queries_total",
	} {
		if !strings.Contains(global, "# TYPE "+family+" ") {
			t.Errorf("global /metrics is missing family %s", family)
		}
	}
	for _, series := range []string{
		`gsgcn_snapshot_version{model="prod"} 1`,
		`gsgcn_snapshot_warm_start{model="prod"} 0`,
		`gsgcn_snapshot_warm_start{model="fleet",shard="0"} 1`,
		`gsgcn_snapshot_warm_start{model="fleet",shard="1"} 1`,
		`gsgcn_index_resident{model="prod"} 0`,
		`gsgcn_index_resident{model="fleet",shard="0"} 1`,
		`gsgcn_shard_up{model="fleet",shard="0"} 1`,
		`gsgcn_shard_up{model="fleet",shard="1"} 0`,
		`gsgcn_degraded_queries_total{model="fleet"} 1`,
		`gsgcn_requests_total{model="prod",transport="wire"} 1`,
		`endpoint="/embed",model="prod"`,
		`endpoint="other",model="prod"`,
	} {
		if !strings.Contains(global, series) {
			t.Errorf("global /metrics is missing %s", series)
		}
	}

	scoped := scrape(t, ts.URL+"/models/prod/metrics")
	if !strings.Contains(scoped, `model="prod"`) {
		t.Error("scoped scrape has no prod series")
	}
	if strings.Contains(scoped, `model="fleet"`) {
		t.Error("scoped scrape for prod leaks fleet series")
	}

	// Scraping is a GET-only surface.
	resp, err := http.Post(ts.URL+"/models/prod/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("POST to a scrape endpoint succeeded")
	}
}

// TestEndpointLabelCardinalityBounded hammers the fleet with
// attacker-shaped paths and verifies no request can mint a new
// endpoint label value: everything folds into the pre-registered
// route patterns plus the catch-all.
func TestEndpointLabelCardinalityBounded(t *testing.T) {
	ds := testDataset(t, false)
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Add("m", ds, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddSharded("fleet", ds, Options{Workers: 1}, 2, 9); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	junk := []string{
		"/models/m/secret-123", "/models/m/embed/../../etc/passwd",
		"/models/fleet/shards/99/stop", "/models/fleet/shards/0/frob",
		"/models/nope/embed", "/favicon.ico", "/v9/api",
	}
	for i, q := range junk {
		if status, _ := getBody(t, ts.URL+q); status == 0 {
			t.Fatalf("junk request %d died", i)
		}
	}

	allowed := map[string]bool{epOther: true, "/models": true, "/metrics": true}
	for _, tbl := range [][]RouteDoc{perModelEndpoints, shardEndpoints} {
		for _, e := range tbl {
			allowed[e.Pattern] = true
		}
	}
	body := scrape(t, ts.URL+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		i := strings.Index(line, `endpoint="`)
		if i < 0 {
			continue
		}
		val := line[i+len(`endpoint="`):]
		val = val[:strings.IndexByte(val, '"')]
		if !allowed[val] {
			t.Errorf("request minted endpoint label %q: %s", val, line)
		}
	}
}

// TestScrapeNeverBlocksOnReloadLocks holds the exact locks a slow
// reload holds — a shard engine's reloadMu and the server's installMu —
// and proves a scrape still completes: every gauge reads atomics, never
// a mutex. So do the status bodies that report the checkpoint and
// artifact base (/models, /models/{name}/healthz). Run under -race this
// also checks the reads are clean.
func TestScrapeNeverBlocksOnReloadLocks(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	reg := NewRegistry()
	defer reg.Close()
	srv, err := reg.Add("m", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
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

	srv.shards[0].eng.reloadMu.Lock()
	defer srv.shards[0].eng.reloadMu.Unlock()
	srv.installMu.Lock()
	defer srv.installMu.Unlock()
	rt.installMu.Lock()
	defer rt.installMu.Unlock()

	for path, want := range map[string]string{
		"/metrics":              `gsgcn_snapshot_version{model="m"} 1`,
		"/models":               fmt.Sprintf(`"checkpoint":%q`, ckpt),
		"/models/m/healthz":     fmt.Sprintf(`"checkpoint":%q`, ckpt),
		"/models/fleet/healthz": fmt.Sprintf(`"checkpoint":%q`, ckpt),
	} {
		done := make(chan string, 1)
		go func(path string) { done <- scrape(t, ts.URL+path) }(path)
		select {
		case body := <-done:
			if !strings.Contains(body, want) {
				t.Errorf("%s under held locks lacks %s", path, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked on reload locks", path)
		}
	}
}

// TestScrapeDuringReloadStorm scrapes continuously while both models
// hot-reload in tight loops. Under -race this proves scraping shares
// no unsynchronized state with the swap path.
func TestScrapeDuringReloadStorm(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	reg := NewRegistry()
	defer reg.Close()
	srv, err := reg.Add("m", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	var stop atomic.Bool
	reloaded := make(chan struct{})
	go func() {
		defer close(reloaded)
		for !stop.Load() {
			if _, err := srv.Load(ckpt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		if body := scrape(t, ts.URL+"/metrics"); !strings.Contains(body, "gsgcn_snapshot_version") {
			t.Fatal("scrape lost the snapshot gauge mid-storm")
		}
	}
	stop.Store(true)
	<-reloaded
}

// TestShardedStatusReportsBatcherStats is the stats-parity check: the
// sharded router runs a batcher per shard, and its health body must
// account for the query load the same way the single-process server's
// does. Counts are per shard sub-query, so the router's scatter
// amplifies them by at most the shard count —
// the sharded body must be nonzero (the old gap: it reported nothing)
// and bounded by solo × shards.
func TestShardedStatusReportsBatcherStats(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	reg := NewRegistry()
	defer reg.Close()
	solo, err := reg.Add("solo", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := reg.AddSharded("fleet", ds, Options{Workers: 1}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	for _, name := range []string{"solo", "fleet"} {
		for _, q := range []string{"/embed?ids=0,1,2,3", "/predict?ids=4,5"} {
			if status, raw := getBody(t, ts.URL+"/models/"+name+q); status != http.StatusOK {
				t.Fatalf("%s%s: status %d: %s", name, q, status, raw)
			}
		}
	}

	stats := func(name string) (batches, queries uint64) {
		var body struct {
			Batches uint64 `json:"batches"`
			Queries uint64 `json:"queries"`
		}
		_, raw := getBody(t, ts.URL+"/models/"+name+"/healthz")
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("%s healthz: %v", name, err)
		}
		return body.Batches, body.Queries
	}
	soloBatches, soloQueries := stats("solo")
	fleetBatches, fleetQueries := stats("fleet")
	if soloBatches == 0 || fleetBatches == 0 {
		t.Fatalf("batches not reported: solo %d, fleet %d", soloBatches, fleetBatches)
	}
	const shards = 2
	if fleetQueries < soloQueries || fleetQueries > soloQueries*shards {
		t.Errorf("query accounting diverged: solo served %d, sharded fleet %d (want within [%d, %d])",
			soloQueries, fleetQueries, soloQueries, soloQueries*shards)
	}

	// The same accounting must reach the /models listing (the old gap:
	// the sharded entry reported zero batches there).
	var list struct {
		Models []struct {
			Name    string `json:"name"`
			Batches uint64 `json:"batches"`
			Queries uint64 `json:"queries"`
		} `json:"models"`
	}
	_, raw := getBody(t, ts.URL+"/models")
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	for _, m := range list.Models {
		if m.Batches == 0 || m.Queries == 0 {
			t.Errorf("/models entry %q reports no batcher stats: %s", m.Name, raw)
		}
	}
}

// TestAccessLogRequestLine pins the structured request line: one JSON
// object per request carrying the monotonic id, model, endpoint,
// status, latency and the batch id the answer rode in.
func TestAccessLogRequestLine(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	var buf bytes.Buffer
	reg := NewRegistry()
	defer reg.Close()
	reg.SetAccessLog(obs.NewLogger(&buf))
	srv, err := reg.Add("m", ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	defer ts.Close()

	if status, raw := getBody(t, ts.URL+"/models/m/embed?ids=0,1"); status != http.StatusOK {
		t.Fatalf("embed: status %d: %s", status, raw)
	}

	var line struct {
		Event    string  `json:"event"`
		ID       uint64  `json:"id"`
		Model    string  `json:"model"`
		Endpoint string  `json:"endpoint"`
		Method   string  `json:"method"`
		Status   int     `json:"status"`
		DurMS    float64 `json:"dur_ms"`
		Batch    uint64  `json:"batch"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
	}
	if line.Event != "request" || line.ID == 0 || line.Model != "m" ||
		line.Endpoint != "/embed" || line.Method != http.MethodGet ||
		line.Status != http.StatusOK || line.DurMS < 0 || line.Batch == 0 {
		t.Errorf("request line missing fields: %s", buf.String())
	}
}
