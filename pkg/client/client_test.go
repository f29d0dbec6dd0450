package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/serve"
	"gsgcn/internal/wire"
)

// fleet is one running registry reachable over all three transports,
// and the model its clients address.
type fleet struct {
	httpURL  string
	tcpAddr  string
	model    string
	vertices int
}

// transports lists the three client transports, json (the reference
// encoding) first.
var transports = [3]string{"json", "wire", "tcp"}

// testGraph is the graph every test here serves.
func testGraph() *datasets.Dataset {
	return datasets.Generate(datasets.Config{
		Name: "client-test", Vertices: 120, TargetEdges: 900,
		FeatureDim: 10, NumClasses: 4,
		Homophily: 0.8, NoiseStd: 0.5, Seed: 11,
	})
}

// saveCheckpoint trains a model on ds for steps optimizer steps and
// saves it, stamped with the step count as its model version.
func saveCheckpoint(tb testing.TB, ds *datasets.Dataset, steps int) string {
	tb.Helper()
	m := core.NewModel(ds, core.Config{
		Layers: 2, Hidden: 8, Workers: 1, Seed: 7,
		FrontierM: 30, Budget: 120, PInter: 1,
	})
	tr := core.NewTrainer(ds, m)
	for i := 0; i < steps; i++ {
		tr.Step()
	}
	m.ModelVersion = uint64(steps)
	ckpt := filepath.Join(tb.TempDir(), "m.ckpt")
	if err := m.SaveFile(ckpt); err != nil {
		tb.Fatal(err)
	}
	return ckpt
}

// serveRegistry serves reg over HTTP via httptest and over the framed
// transport on a loopback listener, returning both addresses.
func serveRegistry(tb testing.TB, reg *serve.Registry) (httpURL, tcpAddr string) {
	tb.Helper()
	ts := httptest.NewServer(reg)
	tb.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go reg.ServeWire(ln)
	return ts.URL, ln.Addr().String()
}

// startFleet builds a registry with one trained model (sharded when
// shards > 1), serving HTTP via httptest and the framed transport on
// a loopback listener.
func startFleet(tb testing.TB, workers, shards int) *fleet {
	tb.Helper()
	ds := testGraph()
	ckpt := saveCheckpoint(tb, ds, 3)
	reg := serve.NewRegistry()
	tb.Cleanup(reg.Close)
	opts := serve.Options{Workers: workers, ANN: true, ANNEf: 16}
	var ms *serve.Server
	var err error
	if shards > 1 {
		ms, err = reg.AddSharded("m", ds, opts, shards, 42)
	} else {
		ms, err = reg.Add("m", ds, opts)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ms.Load(ckpt); err != nil {
		tb.Fatal(err)
	}
	httpURL, tcpAddr := serveRegistry(tb, reg)
	return &fleet{httpURL: httpURL, tcpAddr: tcpAddr, model: "m", vertices: ds.G.NumVertices()}
}

// clients builds one client per transport against f, in transports
// order, all targeting the model by name so every dispatch layer is
// exercised.
func clients(tb testing.TB, f *fleet) [3]Client {
	tb.Helper()
	var out [3]Client
	for i, tr := range transports {
		addr := f.httpURL
		if tr == "tcp" {
			addr = f.tcpAddr
		}
		c, err := New(Config{Transport: tr, Addr: addr, Model: f.model})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { c.Close() })
		out[i] = c
	}
	return out
}

// outcome flattens a (result, error) pair for cross-transport
// comparison: an *APIError compares by value, any other error is a
// test failure upstream.
func outcome(tb testing.TB, res any, err error) any {
	tb.Helper()
	if err == nil {
		return res
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		tb.Fatalf("non-API error: %v", err)
	}
	return *ae
}

// exact renders a value so that two renderings are equal exactly when
// the values are: %x prints every float64 in hexadecimal floating
// point, which keeps all of its bits (-0 included), and every other
// field by value.
func exact(v any) string { return fmt.Sprintf("%T %x", v, v) }

// compareOutcomes requires the wire and tcp outcomes of one query to be
// exact copies of the json one.
func compareOutcomes(t *testing.T, label string, got [3]any) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if exact(got[i]) != exact(got[0]) {
			t.Errorf("%s: %s outcome differs from json:\n json: %+v\n %s: %+v", label, transports[i], got[0], transports[i], got[i])
		}
	}
}

// TestTransportsBitIdentical is the SDK's core contract (referenced
// from docs/API.md): for the same query, the three transports return
// identical results — float64s bit for bit — and identical *APIError
// rejections, at every workers and shard setting.
func TestTransportsBitIdentical(t *testing.T) {
	for _, cfg := range []struct{ workers, shards int }{{1, 1}, {3, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("workers=%d,shards=%d", cfg.workers, cfg.shards), func(t *testing.T) {
			f := startFleet(t, cfg.workers, cfg.shards)
			cs := clients(t, f)
			ctx := context.Background()

			queries := []struct {
				label string
				run   func(Client) (any, error)
			}{
				{"embed", func(c Client) (any, error) { return c.Embed(ctx, []int{0, 1, 2, 7}) }},
				{"embed-single", func(c Client) (any, error) { return c.Embed(ctx, []int{42}) }},
				{"embed-oob", func(c Client) (any, error) { return c.Embed(ctx, []int{0, 9999}) }},
				{"predict", func(c Client) (any, error) { return c.Predict(ctx, []int{3, 5}) }},
				{"topk-default", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 7}) }},
				{"topk-exact", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 7, K: 5, Mode: "exact"}) }},
				{"topk-ann", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 7, K: 5, Mode: "ann", Ef: 32}) }},
				{"topk-bad-ef", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 7, Mode: "exact", Ef: 8}) }},
				{"topk-bad-id", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 100000}) }},
				{"topk-big-k", func(c Client) (any, error) { return c.TopK(ctx, TopKQuery{ID: 1, K: 100000}) }},
			}
			for _, q := range queries {
				var got [3]any
				for i, c := range cs {
					res, err := q.run(c)
					got[i] = outcome(t, res, err)
				}
				compareOutcomes(t, q.label, got)
			}
		})
	}
}

// TestTCPPipelining hammers one persistent connection from many
// goroutines: the FIFO response matching must hand every caller its
// own answer (the embedding of its own id, not a neighbor's).
func TestTCPPipelining(t *testing.T) {
	f := startFleet(t, 2, 1)
	c, err := New(Config{Transport: "tcp", Addr: f.tcpAddr, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := New(Config{Transport: "json", Addr: f.httpURL, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	ctx := context.Background()
	want := make([][][]float64, f.vertices)
	for id := 0; id < f.vertices; id++ {
		r, err := ref.Embed(ctx, []int{id})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = r.Vectors
	}
	var wg sync.WaitGroup
	errs := make(chan error, f.vertices)
	for id := 0; id < f.vertices; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, err := c.Embed(ctx, []int{id})
			if err != nil {
				errs <- fmt.Errorf("id %d: %w", id, err)
				return
			}
			if len(r.IDs) != 1 || r.IDs[0] != id || exact(r.Vectors) != exact(want[id]) {
				errs <- fmt.Errorf("id %d: got someone else's answer", id)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPUnencodableRequestLeavesConnectionUsable: a request that
// cannot become a frame (ids past wire.MaxPayload) fails on its own.
// It sends nothing, so it must leave no reply slot in the FIFO — one
// left there hands every later caller its predecessor's answer, or
// none at all.
func TestTCPUnencodableRequestLeavesConnectionUsable(t *testing.T) {
	f := startFleet(t, 1, 1)
	c, err := New(Config{Transport: "tcp", Addr: f.tcpAddr, Model: "m", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Embed(ctx, make([]int, wire.MaxPayload/8+1)); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("Embed past MaxPayload: err = %v, want the payload-cap error", err)
	}
	for _, id := range []int{3, 5} {
		r, err := c.Embed(ctx, []int{id})
		if err != nil {
			t.Fatalf("Embed([%d]) after an unencodable request: %v", id, err)
		}
		if len(r.IDs) != 1 || r.IDs[0] != id {
			t.Fatalf("Embed([%d]) answered ids %v — the reply FIFO is misaligned", id, r.IDs)
		}
	}
}

// TestTCPSurvivesReload pins the persistent connection across a hot
// reload: in-flight and subsequent queries keep answering, and the
// snapshot version advances without a reconnect.
func TestTCPSurvivesReload(t *testing.T) {
	f := startFleet(t, 2, 1)
	c, err := New(Config{Transport: "tcp", Addr: f.tcpAddr, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := NewOps(f.httpURL, "m", nil)
	ctx := context.Background()

	before, err := c.Embed(ctx, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ops.Reload(ctx); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Embed(ctx, []int{1})
	if err != nil {
		t.Fatalf("connection did not survive reloads: %v", err)
	}
	if after.Version <= before.Version {
		t.Errorf("snapshot version did not advance across reload: %d -> %d", before.Version, after.Version)
	}
	if exact(before.Vectors) != exact(after.Vectors) {
		t.Errorf("same checkpoint reloaded; embedding bits changed")
	}
}

// TestOpsControlPlane covers the SDK's operational surface end to
// end on a sharded model.
func TestOpsControlPlane(t *testing.T) {
	f := startFleet(t, 1, 2)
	ops := NewOps(f.httpURL, "m", nil)
	ctx := context.Background()

	h, err := ops.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Vertices != f.vertices {
		t.Fatalf("health = %+v", h)
	}
	if err := ops.StopShard(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if h, err = ops.Health(ctx); err != nil || h.Status != "degraded" {
		t.Fatalf("after stop: health %+v err %v", h, err)
	}
	if err := ops.StartShard(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if h, err = ops.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("after start: health %+v err %v", h, err)
	}
	// Errors surface as APIError with the server's exact message.
	var ae *APIError
	if err := ops.StopShard(ctx, 99); !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("bad shard stop: %v", err)
	}
}
