package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gsgcn/pkg/client"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

func TestSummariseAndMedianOverWindows(t *testing.T) {
	window := 50 * time.Millisecond
	var wins []windowStats
	// Window i, two bursts of 50 ms, holds i+1 samples, each of latency
	// (i+1) ms, and one more that completed while a burst drained.
	for i := 0; i < 5; i++ {
		var samples []sample
		for j := 0; j <= i; j++ {
			samples = append(samples, sample{end: time.Duration(j) * time.Millisecond, lat: time.Duration(i+1) * time.Millisecond})
		}
		samples = append(samples, sample{end: window, lat: time.Hour})
		w := summariseWindow(samples, window, 2, 99)
		if w.n != i+1 || w.okAll != i+2 || w.p50 != float64(i+1) || w.tail != float64(i+1) {
			t.Errorf("window %d = %+v, want %d samples of %d ms and one drained", i, w, i+1, i+1)
		}
		wins = append(wins, w)
	}
	if got := medianOver(wins, func(w windowStats) float64 { return w.qps }); got != 30 {
		t.Errorf("median qps = %v, want 30 (3 samples in 0.1 s)", got)
	}
	if got := medianOver(wins, func(w windowStats) float64 { return w.tail }); got != 3 {
		t.Errorf("median tail = %v, want 3", got)
	}
}

func TestNormalise(t *testing.T) {
	// A host on which the kernel takes twice its nominal time is half
	// as fast: a measured 10 is 5 on the nominal host.
	if got := normalise(10, 2*refNominal); got != 5 {
		t.Errorf("normalise(10, 2 x nominal) = %v, want 5", got)
	}
	if got := normalise(10, refNominal); got != 10 {
		t.Errorf("normalise(10, nominal) = %v, want 10", got)
	}
	if got := meanDuration(time.Millisecond, 3*time.Millisecond); got != 2*time.Millisecond {
		t.Errorf("meanDuration = %v, want 2ms", got)
	}
	if d := newRefKernel().read(); d <= 0 {
		t.Errorf("reference kernel read %v", d)
	}
}

func TestColdTopKNeverRepeatsAndIsSeeded(t *testing.T) {
	const vertices = 50
	a, b, c := newColdTopK(7, vertices), newColdTopK(7, vertices), newColdTopK(8, vertices)
	seen := map[[2]int]bool{}
	differs := false
	for i := 0; i < vertices*topkKs; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x.id != y.id || x.k != y.k {
			t.Fatalf("draw %d: same seed gave (%d,%d) and (%d,%d)", i, x.id, x.k, y.id, y.k)
		}
		differs = differs || x.id != z.id || x.k != z.k
		key := [2]int{x.id, x.k}
		if seen[key] {
			t.Fatalf("draw %d repeats pair %v", i, key)
		}
		seen[key] = true
		if x.id < 0 || x.id >= vertices || x.k < topkMinK || x.k >= topkMinK+topkKs || x.mode != "exact" {
			t.Fatalf("draw %d out of range: %+v", i, x)
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same permutation")
	}
	if used, pairs := a.used(); used != int64(pairs) {
		t.Errorf("used %d of %d pairs after drawing them all", used, pairs)
	}
}

func TestZipfTopKSeededAndSkewed(t *testing.T) {
	a, b := newZipfTopK(3, 1, 1000), newZipfTopK(3, 1, 1000)
	other := newZipfTopK(3, 2, 1000)
	counts := map[[2]int]int{}
	for i := 0; i < 20000; i++ {
		x, y := a.next(), b.next()
		if x.id != y.id || x.k != y.k {
			t.Fatalf("draw %d: same seed and stream differ", i)
		}
		counts[[2]int{x.id, x.k}]++
	}
	if len(counts) > zipfKeys {
		t.Errorf("%d distinct keys, want at most %d", len(counts), zipfKeys)
	}
	// Streams of one seed share the key set.
	for i := 0; i < 1000; i++ {
		x := other.next()
		if counts[[2]int{x.id, x.k}] == 0 {
			t.Fatalf("stream 2 drew key (%d,%d) that stream 1 never drew in 20000", x.id, x.k)
		}
	}
	top := a.keys[0]
	share := float64(counts[[2]int{top.id, top.k}]) / 20000
	want := 1 / harmonic(zipfKeys)
	if math.Abs(share-want) > 0.02 {
		t.Errorf("hottest key drew %.3f of queries, want about %.3f", share, want)
	}
}

func harmonic(n int) float64 {
	var s float64
	for i := 1; i <= n; i++ {
		s += 1 / float64(i)
	}
	return s
}

func TestPointGenSeededMix(t *testing.T) {
	a, b := newPointGen(5, 9, 100, 2, 1, 1, "ann"), newPointGen(5, 9, 100, 2, 1, 1, "ann")
	var kinds [3]int
	for i := 0; i < 8000; i++ {
		x, y := a.next(), b.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("draw %d: same seed gave %+v and %+v", i, x, y)
		}
		kinds[x.kind]++
		if x.kind == opTopK && (x.mode != "ann" || x.k != 10) {
			t.Fatalf("topk draw %+v", x)
		}
		if x.kind != opTopK && (len(x.ids) < 1 || len(x.ids) > 3) {
			t.Fatalf("point draw with %d ids", len(x.ids))
		}
	}
	for kind, want := range []float64{0.5, 0.25, 0.25} {
		if got := float64(kinds[kind]) / 8000; math.Abs(got-want) > 0.03 {
			t.Errorf("kind %d share %.3f, want about %.2f", kind, got, want)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// The command contains spaces and a ')' to trip naive splitting.
	stat := "8552 (gsgcn serve) x) S 1 8551 8547 0 -1 4228108 16760 0 0 0 877 11 3 4 20 0 1 0 165831 0 0"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got.user != 8770*time.Millisecond || got.sys != 110*time.Millisecond {
		t.Errorf("parsed %+v, want user 8.77 s, sys 0.11 s", got)
	}
	if got.total() != 8880*time.Millisecond {
		t.Errorf("total %v", got.total())
	}
	if _, err := parseProcStat("1 (x) S 1 2"); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("line without a command parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tgsgcn-serve\nVmPeak:\t 1234567 kB\nVmHWM:\t   55720 kB\nVmRSS:\t   50000 kB\n"
	kb, err := parseStatusKB(status, "VmRSS")
	if err != nil || kb != 50000 {
		t.Errorf("VmRSS = %d, %v; want 50000", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}
	if _, err := parseStatusKB("VmRSS:\t12 MB\n", "VmRSS"); err == nil {
		t.Error("wrong unit parsed")
	}
}

func TestProcSelfReadable(t *testing.T) {
	if _, err := procCPU(0); err != nil {
		t.Error(err)
	}
	if mb, err := procRSSMB(0); err != nil || mb <= 0 {
		t.Errorf("RSS %v MB, %v", mb, err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) side { return side{n: 10, median: m, spread: 0.02} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b side
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"slower within bound", lower, tight(100), tight(109), verdictOK},
		{"slower beyond bound", lower, tight(100), tight(111), verdictWorse},
		{"faster", lower, tight(100), tight(50), verdictOK},
		{"throughput down beyond bound", higher, tight(100), tight(89), verdictWorse},
		{"throughput up", higher, tight(100), tight(150), verdictOK},
		{"noisy baseline", lower, side{n: 10, median: 100, spread: 0.15}, tight(105), verdictUnresolved},
		{"noisy candidate", higher, tight(100), side{n: 10, median: 98, spread: 0.30}, verdictUnresolved},
		{"noisy but clearly worse", lower, side{n: 10, median: 100, spread: 0.15}, tight(130), verdictWorse},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, w := judge(higher, tight(100), tight(80)); math.Abs(w-0.20) > 1e-12 {
		t.Errorf("worsening of a throughput drop 100 -> 80 = %v, want 0.20", w)
	}
}

func TestSummariseSpread(t *testing.T) {
	s := summarise([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.n != 10 || s.median != 5.5 || math.Abs(s.spread-1.0) > 1e-12 {
		t.Errorf("summarise(1..10) = %+v, want median 5.5 and spread (8.25-2.75)/5.5 = 1", s)
	}
	if one := summarise([]float64{4}); one.spread != 0 || one.median != 4 {
		t.Errorf("summarise of one value = %+v", one)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS []float64, quick bool) string {
		path := filepath.Join(dir, name)
		for _, v := range opsPerS {
			r := &result{Workload: "serve_point", Quick: quick, Correct: true,
				Metrics: map[string]metricValue{"ops_per_s": {v, "1/s"}, "rss_mb": {64, "MB"}},
				Host:    hostInfo{CPU: "test", NumCPU: 2}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{1000, 1010, 990, 1005, 995}, false)
	slow := write("b.jsonl", []float64{600, 610, 590, 605, 595}, false)
	var out strings.Builder
	worse, err := compareFiles(&out, base, slow)
	if err != nil || !worse {
		t.Fatalf("40%% throughput drop: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !regexp.MustCompile(`serve_point\s+ops_per_s.*worse`).MatchString(out.String()) ||
		!regexp.MustCompile(`serve_point\s+rss_mb.*ok`).MatchString(out.String()) {
		t.Errorf("rows missing from:\n%s", out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, base); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v", worse, err)
	}
	quick := write("q.jsonl", []float64{1}, true)
	if _, err := compareFiles(&out, base, quick); err == nil {
		t.Error("a file of only -quick runs was compared")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecWithinContractLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.run == nil {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		name("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s is not named <module>.<metric>", m.Name)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if c := perLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, code has %+v", i, m, c)
		}
	}
}

func TestParseLatencyMetrics(t *testing.T) {
	text := `# HELP gsgcn_http_request_duration_seconds x
gsgcn_http_request_duration_seconds_bucket{endpoint="/embed",le="0.001",model="default"} 7
gsgcn_http_request_duration_seconds_sum{endpoint="/embed",model="default"} 0.5
gsgcn_http_request_duration_seconds_count{endpoint="/embed",model="default"} 10
gsgcn_http_request_duration_seconds_sum{endpoint="/topk",model="default"} 1.5
gsgcn_http_request_duration_seconds_count{endpoint="/topk",model="default"} 30
gsgcn_http_request_duration_seconds_sum{endpoint="/healthz",model="default"} 9
gsgcn_http_request_duration_seconds_count{endpoint="/healthz",model="default"} 9
`
	sum, count, err := parseLatencyMetrics(text)
	if err != nil || sum != 2 || count != 40 {
		t.Errorf("sum %v count %v err %v; want 2, 40", sum, count, err)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{&client.APIError{Status: 429, Reason: "shed"}, failShed},
		{&client.APIError{Status: 503}, failUnavailable},
		{&client.APIError{Status: 504, Reason: "deadline"}, failDeadline},
		{&client.APIError{Status: 400}, failClient},
		{&client.APIError{Status: 500}, failServer},
		{fmt.Errorf("wrapped: %w", &client.APIError{Status: 404}), failClient},
		{context.DeadlineExceeded, failDeadline},
		{errors.New("connection reset"), failTransport},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	tr.end(child)
	tr.end(root)
	if tr.count() != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("spans %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("x", 0)) // a nil tracer records nothing and does not panic
	if none.count() != 0 {
		t.Error("nil tracer counted spans")
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var back []span
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != 2 || back[1].Name != "child" {
		t.Errorf("span file round trip: %v %+v", err, back)
	}
}
