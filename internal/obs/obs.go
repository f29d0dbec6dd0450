// Package obs is the fleet's observability plane: a dependency-free
// metrics core (atomic counters, gauges, fixed-bucket histograms, a
// Registry rendering Prometheus text exposition format) plus a
// structured JSON-line logger with monotonic request ids.
//
// Design rules, in order:
//
//   - Observation only. Nothing in this package is ever read back by
//     a serving or training code path, so instrumentation can never
//     alter an answer — the determinism contract
//     (docs/ARCHITECTURE.md) holds with metrics on or off.
//   - Lock-free hot path. Counters and histogram observations are a
//     handful of atomic adds on pre-registered handles; no map lookup,
//     no allocation, no mutex. The registry mutex guards only handle
//     registration and scrape-time iteration.
//   - Non-blocking scrapes. Func-backed gauges (GaugeFunc/CounterFunc)
//     read atomics or channel lengths at scrape time; a scrape must
//     never wait on a serving lock, however slow the reload it races.
//   - Bounded cardinality. Label values come from fixed sets —
//     endpoint patterns, model names, shard indices, status classes —
//     never from request payloads (no per-vertex labels). Tests
//     enforce the bound.
//   - Deterministic rendering. Families sort by name, series by label
//     signature, and histogram bucket bounds are fixed at
//     registration, so two scrapes of identical state are
//     byte-identical.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// TextContentType is the Content-Type of the Prometheus text
// exposition format rendered by Registry.WriteText.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// LatencyBuckets are the deterministic bucket bounds (seconds) for
// request-latency histograms: 100µs to 10s, roughly ×2.5 per step.
var LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10}

// DurationBuckets are the deterministic bucket bounds (seconds) for
// coarse wall-time histograms (training epochs, artifact builds).
var DurationBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 600}

// SizeBuckets are the deterministic bucket bounds for count-valued
// histograms (batch sizes, fan-out widths): powers of two through the
// per-request id limit.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// kind is a metric family's exposition type.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labeled time series of a family. Exactly one of the
// value fields is set, matching the family kind (fn may back either a
// gauge or a counter).
type series struct {
	sig     string // rendered label signature, e.g. {a="b",c="d"}
	labels  map[string]string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is all series sharing one metric name, help and type.
type family struct {
	name, help string
	kind       kind
	series     map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Handle registration is idempotent: asking for an
// existing (name, labels) pair returns the already-registered handle,
// so wiring code can re-derive handles without double counting.
// Registration with a conflicting type panics — that is a programming
// error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// signature renders labels as a deterministic {k="v",…} block (keys
// sorted; empty labels render as the empty string).
func signature(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves (name, labels) to its series, creating family and
// series on first use. Type conflicts panic.
func (r *Registry) register(name, help string, k kind, labels map[string]string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	sig := signature(labels)
	s, ok := f.series[sig]
	if !ok {
		cp := make(map[string]string, len(labels))
		for lk, lv := range labels {
			cp[lk] = lv
		}
		s = &series{sig: sig, labels: cp}
		f.series[sig] = s
	}
	return s
}

// Counter returns the counter named name with the given labels,
// registering it on first use.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge named name with the given labels,
// registering it on first use.
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers (or replaces) a function-backed gauge: fn is
// called at scrape time and must be non-blocking — read atomics or
// channel lengths, never take serving locks.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	s := r.register(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// CounterFunc registers (or replaces) a function-backed counter — for
// monotonic values a subsystem already tracks in its own atomics
// (e.g. the serving batcher's answer count), exposed without double
// accounting. fn must be non-blocking and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	s := r.register(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the fixed-bucket histogram named name with the
// given labels, registering it on first use with the given bucket
// upper bounds (ascending; a +Inf bucket is implicit). Later calls for
// the same series return the existing handle; buckets are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, labels map[string]string, buckets []float64) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = newHistogram(buckets)
	}
	return s.hist
}

// WriteText renders every family in Prometheus text exposition format:
// families sorted by name, series by label signature — two scrapes of
// identical state are byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	return r.WriteFiltered(w, nil)
}

// WriteFiltered renders the families, keeping only series whose labels
// keep accepts (nil keeps everything). Families left with no series
// are omitted entirely.
func (r *Registry) WriteFiltered(w io.Writer, keep func(labels map[string]string) bool) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := r.fams[n]
		sigs := make([]string, 0, len(f.series))
		for sig, s := range f.series {
			if keep == nil || keep(s.labels) {
				sigs = append(sigs, sig)
			}
		}
		if len(sigs) == 0 {
			continue
		}
		sort.Strings(sigs)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, sig := range sigs {
			writeSeries(&b, f, f.series[sig])
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series (registry mutex held by the caller).
func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.hist != nil:
		cum := uint64(0)
		for i, bound := range s.hist.bounds {
			cum += s.hist.buckets[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSig(s.labels, formatFloat(bound)), cum)
		}
		cum += s.hist.buckets[len(s.hist.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSig(s.labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.sig, formatFloat(s.hist.sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.sig, s.hist.count.Load())
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.sig, formatFloat(s.fn()))
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.sig, s.counter.Value())
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.sig, formatFloat(s.gauge.Value()))
	}
}

// bucketSig renders a series' label signature with the le bucket bound
// appended (le sorts into place like any other label).
func bucketSig(labels map[string]string, le string) string {
	cp := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		cp[k] = v
	}
	cp["le"] = le
	return signature(cp)
}

// formatFloat renders a float64 the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
