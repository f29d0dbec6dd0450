package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsgcn"
	"gsgcn/pkg/client"
)

func TestClassify(t *testing.T) {
	api := func(status int) error { return &client.APIError{Status: status, Message: "x"} }
	cases := []struct {
		err  error
		want class
	}{
		{nil, clsOK},
		{api(429), clsShed},
		{api(503), clsUnavailable},
		{api(504), clsDeadline},
		{api(400), clsClient},
		{api(404), clsClient},
		{api(500), clsServer},
		{api(502), clsServer},
		{errors.New("dial refused"), clsTransport},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, classNames[got], classNames[c.want])
		}
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", p)
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{99.9, 100 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100ms, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(sorted[:1], 99.9); got != time.Millisecond {
		t.Errorf("percentile of single sample = %v, want 1ms", got)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("2:1:1")
	if err != nil || mix != [3]int{2, 1, 1} {
		t.Errorf("parseMix(2:1:1) = %v, %v", mix, err)
	}
	if _, err := parseMix("0:0:1"); err != nil {
		t.Errorf("parseMix(0:0:1) should allow zero weights: %v", err)
	}
	for _, bad := range []string{"1:2", "1:2:3:4", "a:1:1", "-1:1:1", "0:0:0", ""} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) should fail", bad)
		}
	}
}

func TestCollectorRecordsLatencyOnlyForOK(t *testing.T) {
	c := &collector{}
	c.record(clsOK, 5*time.Millisecond)
	c.record(clsShed, time.Microsecond)
	c.record(clsTransport, time.Second)
	c.record(clsOK, 7*time.Millisecond)
	if c.count[clsOK] != 2 || c.count[clsShed] != 1 || c.count[clsTransport] != 1 {
		t.Errorf("counts = %v", c.count)
	}
	if len(c.lat) != 2 {
		t.Fatalf("latency samples = %d, want 2 (only ok answers sampled)", len(c.lat))
	}
}

func TestSummaryHardFailures(t *testing.T) {
	var s summary
	s.count[clsOK] = 10
	s.count[clsShed] = 4
	s.count[clsUnavailable] = 2
	if s.hardFailures() != 0 {
		t.Errorf("sheds and degraded 503s must not count as hard failures: %d", s.hardFailures())
	}
	s.count[clsClient] = 1
	s.count[clsServer] = 2
	s.count[clsTransport] = 3
	if s.hardFailures() != 6 {
		t.Errorf("hardFailures = %d, want 6", s.hardFailures())
	}
}

func TestReportListsOnlyNonZeroClasses(t *testing.T) {
	var s summary
	s.count[clsOK] = 9
	s.count[clsShed] = 1
	s.elapsed = time.Second
	var buf strings.Builder
	report(&buf, config{rate: 50, transport: "json", models: []string{""}}, s)
	out := buf.String()
	// The class lines are an interface: scripts/serve-smoke.sh reads
	// them as the summary's only two-field lines, name then count.
	for _, want := range []string{"\n  ok           9\n", "\n  shed         1\n", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] != "ok" && f[0] != "shed" {
			t.Errorf("a non-class line has two fields: %q", line)
		}
	}
	if strings.Contains(out, "transport 0") {
		t.Errorf("report lists a zero class:\n%s", out)
	}
}

// loadgenRegistry stands up a real single-model registry serving both
// the HTTP surface and the framed TCP listener, trained just enough
// to answer queries. Returns the HTTP base URL and the TCP address.
func loadgenRegistry(t *testing.T) (string, string) {
	t.Helper()
	ds := gsgcn.GenerateDataset(gsgcn.DatasetConfig{
		Name: "loadgen-test", Vertices: 200, TargetEdges: 1500,
		FeatureDim: 8, NumClasses: 3, Homophily: 0.8, NoiseStd: 0.5, Seed: 7,
	})
	m := gsgcn.NewModel(ds, gsgcn.Config{
		Layers: 2, Hidden: 8, Workers: 1, Seed: 17,
		FrontierM: 30, Budget: 120, PInter: 1,
	})
	tr := gsgcn.NewTrainer(ds, m)
	tr.Step()
	m.ModelVersion = uint64(tr.Steps())
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	if err := m.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}
	reg := gsgcn.NewModelRegistry()
	srv, err := reg.Add("m", ds, gsgcn.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go reg.ServeWire(ln)
	t.Cleanup(func() {
		ts.Close()
		ln.Close()
		reg.Close()
	})
	return ts.URL, ln.Addr().String()
}

// TestRunAgainstRegistry drives the full open-loop generator against a
// real serving registry over every transport, reloads included: every
// request must come back 200 and the percentiles must be populated.
func TestRunAgainstRegistry(t *testing.T) {
	httpURL, tcpAddr := loadgenRegistry(t)
	for _, transport := range []string{"json", "wire", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			s, err := run(config{
				addr: httpURL, wireAddr: tcpAddr, transport: transport,
				rate: 200, duration: 500 * time.Millisecond,
				timeout: 5 * time.Second, mix: [3]int{2, 1, 1}, models: []string{""},
				seed: 1, reloadEvery: 150 * time.Millisecond, churnShard: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.count[clsOK] == 0 {
				t.Fatalf("no request succeeded: %v", s.count)
			}
			if bad := s.hardFailures(); bad != 0 {
				t.Fatalf("%d hard failures against a healthy registry: %v", bad, s.count)
			}
			if s.p50 <= 0 || s.p99 < s.p50 || s.p999 < s.p99 {
				t.Errorf("percentiles not ordered: p50=%v p99=%v p999=%v", s.p50, s.p99, s.p999)
			}
			if s.qps <= 0 {
				t.Errorf("qps = %v", s.qps)
			}
		})
	}
}

// TestRunChurnFlipsShard covers the churn goroutine against a fake
// fleet: stop/start posts must alternate and the final flip must leave
// the shard started.
func TestRunChurnFlipsShard(t *testing.T) {
	var mu sync.Mutex
	var flips []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/healthz":
			w.Write([]byte(`{"vertices": 50}`))
		case strings.HasPrefix(r.URL.Path, "/v1/shards/2/"):
			mu.Lock()
			flips = append(flips, strings.TrimPrefix(r.URL.Path, "/v1/shards/2/"))
			mu.Unlock()
			w.Write([]byte(`{}`))
		default:
			w.Write([]byte(`{}`))
		}
	}))
	defer ts.Close()
	s, err := run(config{
		addr: ts.URL, transport: "json", rate: 50, duration: 350 * time.Millisecond,
		timeout: time.Second, mix: [3]int{1, 1, 1}, models: []string{""},
		seed: 2, churnShard: 2, churnEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.count[clsOK] == 0 {
		t.Fatalf("no request succeeded: %v", s.count)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flips) < 2 {
		t.Fatalf("churn flips = %v, want at least one stop plus the final start", flips)
	}
	if flips[0] != "stop" {
		t.Errorf("first flip = %q, want stop", flips[0])
	}
	if flips[len(flips)-1] != "start" {
		t.Errorf("last flip = %q, want start (fleet must be left healthy)", flips[len(flips)-1])
	}
}

func TestRunRejectsUndiscoverableTargets(t *testing.T) {
	base := config{
		transport: "json", rate: 10, duration: 50 * time.Millisecond, timeout: time.Second,
		mix: [3]int{1, 1, 1}, models: []string{""},
	}
	cfg := base
	cfg.addr = "http://127.0.0.1:1"
	if _, err := run(cfg); err == nil {
		t.Error("unreachable target should fail before generating load")
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"vertices": 1}`))
	}))
	defer ts.Close()
	cfg = base
	cfg.addr = ts.URL
	if _, err := run(cfg); err == nil {
		t.Error("a 1-vertex model cannot serve topk; run should refuse it")
	}
	cfg = base
	cfg.transport = "tcp"
	cfg.addr = ts.URL
	if _, err := run(cfg); err == nil {
		t.Error("-transport tcp without -wire-addr should be rejected")
	}
}
