package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact rendered bytes of a registry
// holding one of each metric kind: family ordering (by name), series
// ordering (by label signature), HELP/TYPE lines, cumulative histogram
// buckets with the implicit +Inf, and label escaping. Any format drift
// breaks real Prometheus scrapers, so this is byte-exact on purpose.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.", map[string]string{"endpoint": "/embed", "model": "prod"}).Add(3)
	r.Counter("app_requests_total", "Total requests.", map[string]string{"endpoint": "/embed", "model": "canary"}).Inc()
	r.Gauge("app_up", "Serving state.", map[string]string{"model": "prod"}).Set(1)
	r.GaugeFunc("app_queue_depth", "Queued requests.", map[string]string{"model": "prod"}, func() float64 { return 7 })
	r.CounterFunc("app_answers_total", "Answers.", map[string]string{"model": "prod"}, func() float64 { return 5 })
	h := r.Histogram("app_latency_seconds", "Request latency.", map[string]string{"model": "prod"}, []float64{0.01, 0.1, 1})
	h.Observe(0.005) // le=0.01
	h.Observe(0.05)  // le=0.1
	h.Observe(0.1)   // le=0.1 (boundary is inclusive)
	h.Observe(5)     // +Inf

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_answers_total Answers.
# TYPE app_answers_total counter
app_answers_total{model="prod"} 5
# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.01",model="prod"} 1
app_latency_seconds_bucket{le="0.1",model="prod"} 3
app_latency_seconds_bucket{le="1",model="prod"} 3
app_latency_seconds_bucket{le="+Inf",model="prod"} 4
app_latency_seconds_sum{model="prod"} 5.155
app_latency_seconds_count{model="prod"} 4
# HELP app_queue_depth Queued requests.
# TYPE app_queue_depth gauge
app_queue_depth{model="prod"} 7
# HELP app_requests_total Total requests.
# TYPE app_requests_total counter
app_requests_total{endpoint="/embed",model="canary"} 1
app_requests_total{endpoint="/embed",model="prod"} 3
# HELP app_up Serving state.
# TYPE app_up gauge
app_up{model="prod"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition drift:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteFiltered checks the model-scoped render: series failing the
// predicate vanish, and families left empty are omitted entirely
// (no dangling HELP/TYPE headers).
func TestWriteFiltered(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", map[string]string{"model": "x"}).Inc()
	r.Counter("a_total", "A.", map[string]string{"model": "y"}).Inc()
	r.Gauge("b", "B.", map[string]string{"model": "y"}).Set(2)
	var b strings.Builder
	if err := r.WriteFiltered(&b, func(l map[string]string) bool { return l["model"] == "x" }); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, `a_total{model="x"} 1`) {
		t.Errorf("filtered render lost the kept series:\n%s", got)
	}
	if strings.Contains(got, `model="y"`) || strings.Contains(got, "# HELP b") {
		t.Errorf("filtered render leaked excluded series or empty family headers:\n%s", got)
	}
}

// TestHandleIdempotent: re-registering the same (name, labels) returns
// the same handle — wiring code may re-derive handles freely without
// forking the series.
func TestHandleIdempotent(t *testing.T) {
	r := NewRegistry()
	l := map[string]string{"model": "m"}
	c1 := r.Counter("c_total", "C.", l)
	c2 := r.Counter("c_total", "C.", l)
	if c1 != c2 {
		t.Error("Counter re-registration returned a different handle")
	}
	c1.Inc()
	c2.Inc()
	if c1.Value() != 2 {
		t.Errorf("split counter: got %d, want 2", c1.Value())
	}
	h1 := r.Histogram("h_seconds", "H.", l, LatencyBuckets)
	h2 := r.Histogram("h_seconds", "H.", l, nil) // buckets fixed at first registration
	if h1 != h2 {
		t.Error("Histogram re-registration returned a different handle")
	}
}

// TestTypeConflictPanics: one name cannot be two kinds.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.", nil)
}

// TestConcurrentObservations hammers one counter and one histogram
// from many goroutines; totals must be exact (run under -race in CI).
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "N.", nil)
	h := r.Histogram("v", "V.", nil, []float64{1, 2})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*per)
	}
	if got := h.sum(); got != 1.5*workers*per {
		t.Errorf("histogram sum %g, want %g", got, 1.5*workers*per)
	}
}

// TestLoggerGolden pins the JSON-line format with the clock pinned:
// ts/event prefix, fields in call order, typed rendering (string,
// int, bool, duration-as-ms, error).
func TestLoggerGolden(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b)
	l.now = func() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }
	l.Event("request",
		F("id", l.NextID()),
		F("model", "prod"),
		F("endpoint", "/embed"),
		F("status", 200),
		F("dur_ms", 1500*time.Microsecond),
		F("ok", true),
	)
	want := `{"ts":"2026-08-08T12:00:00Z","event":"request","id":1,"model":"prod","endpoint":"/embed","status":200,"dur_ms":1.5,"ok":true}` + "\n"
	if got := b.String(); got != want {
		t.Errorf("log line drift:\n got %q\nwant %q", got, want)
	}
}

// TestNilLoggerSafe: a nil *Logger is a no-op sink, so call sites need
// no guards.
func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Event("anything", F("k", "v"))
	if id := l.NextID(); id != 0 {
		t.Errorf("nil logger NextID = %d, want 0", id)
	}
}

// TestLoggerIDsMonotonic: ids from concurrent callers are unique and
// dense.
func TestLoggerIDsMonotonic(t *testing.T) {
	l := NewLogger(&strings.Builder{})
	seen := make([]uint64, 100)
	var wg sync.WaitGroup
	for i := range seen {
		wg.Add(1)
		go func(i int) { defer wg.Done(); seen[i] = l.NextID() }(i)
	}
	wg.Wait()
	uniq := make(map[uint64]bool)
	for _, id := range seen {
		if id < 1 || id > 100 {
			t.Errorf("id %d out of the dense range [1,100]", id)
		}
		uniq[id] = true
	}
	if len(uniq) != 100 {
		t.Errorf("ids collided: %d unique of 100", len(uniq))
	}
}
