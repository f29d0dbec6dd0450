// Overload protection: the admission gate every query endpoint passes
// before any work starts. The gate sheds early — before parsing, before
// any shard runs — when the model's admitted queries in flight reach
// the high-water mark or a per-model QPS quota is exhausted, so an
// overloaded model answers cheap 429s instead of stacking requests it
// will answer late or never. Shedding is observation-equivalent by
// construction: it only decides *whether* a request is admitted, never
// touches how an admitted request is answered, so answered responses
// are byte-identical with shedding enabled or disabled (test-enforced).
// (The package doc comment lives in engine.go.)

package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gsgcn/internal/obs"
)

// errShed marks a query rejected because the model's in-flight depth
// is at its high-water mark. 429: the client should back off and retry.
// The error text still says "queue depth", as it always has.
var errShed = errors.New("serve: overloaded, request shed")

// errQuota marks a query rejected by the per-model QPS quota. Also
// 429, distinguished in the error body and the shed metrics.
var errQuota = errors.New("serve: rate quota exceeded")

// admitGate is one model's admission control: a depth high-water
// check, an optional token-bucket QPS quota, and the in-flight count
// behind gsgcn_inflight. A gate with both limits disabled admits
// unconditionally (and reads no clock), so a server built without
// shedding options behaves exactly as before the gate existed.
type admitGate struct {
	// hw is the depth high-water mark; 0 disables the check.
	hw int
	// depth reads the gate's own in-flight count (tests may pin it).
	// Consulted only when hw > 0.
	depth func() int

	// limit is the QPS quota (0 = unlimited), enforced by a token
	// bucket with burst = max(limit, 1) so a quota of q admits at most
	// ~q queries in any second, while short pauses bank a second of
	// credit.
	limit float64
	burst float64
	mu    sync.Mutex
	tok   float64
	last  time.Time
	now   func() time.Time // injectable for deterministic quota tests

	inflight atomic.Int64

	// shedQueue/shedQuota are the gsgcn_shed_total counters, one per
	// rejection reason (nil on an unobserved gate).
	shedQueue *obs.Counter
	shedQuota *obs.Counter
}

// newAdmitGate builds a gate from resolved options.
func newAdmitGate(opts Options) *admitGate {
	g := &admitGate{hw: opts.ShedQueueHW, limit: opts.QPSLimit, now: time.Now}
	g.depth = func() int { return int(g.inflight.Load()) }
	if g.limit > 0 {
		g.burst = g.limit
		if g.burst < 1 {
			g.burst = 1
		}
		g.tok = g.burst
		g.last = g.now()
	}
	return g
}

// admit decides whether one query may enter the serving path. On
// success it returns a release func the caller must run when the
// request finishes (it keeps the in-flight gauge honest). On
// rejection the error is errShed or errQuota — both 429.
func (g *admitGate) admit() (release func(), err error) {
	if g == nil {
		// Servers assembled by hand (tests) have no gate; admit freely.
		return func() {}, nil
	}
	if g.hw > 0 && g.depth() >= g.hw {
		if g.shedQueue != nil {
			g.shedQueue.Inc()
		}
		return nil, fmt.Errorf("%w (queue depth at high-water mark %d)", errShed, g.hw)
	}
	if g.limit > 0 {
		g.mu.Lock()
		now := g.now()
		g.tok += now.Sub(g.last).Seconds() * g.limit
		if g.tok > g.burst {
			g.tok = g.burst
		}
		g.last = now
		if g.tok < 1 {
			g.mu.Unlock()
			if g.shedQuota != nil {
				g.shedQuota.Inc()
			}
			return nil, fmt.Errorf("%w (%g queries/sec)", errQuota, g.limit)
		}
		g.tok--
		g.mu.Unlock()
	}
	g.inflight.Add(1)
	return func() { g.inflight.Add(-1) }, nil
}

// Inflight reports the number of admitted queries currently being
// served.
func (g *admitGate) Inflight() int64 { return g.inflight.Load() }

// instrument exports the gate's shed counters and in-flight gauge.
// Observation-only, like every other metric: nothing on the admission
// path reads them back.
func (g *admitGate) instrument(reg *obs.Registry, labels map[string]string) {
	withReason := func(reason string) map[string]string {
		l := make(map[string]string, len(labels)+1)
		for k, v := range labels {
			l[k] = v
		}
		l["reason"] = reason
		return l
	}
	g.shedQueue = reg.Counter("gsgcn_shed_total",
		"Queries rejected with 429 by admission control, by reason (queue = depth high-water mark, quota = QPS limit).",
		withReason("queue"))
	g.shedQuota = reg.Counter("gsgcn_shed_total",
		"Queries rejected with 429 by admission control, by reason (queue = depth high-water mark, quota = QPS limit).",
		withReason("quota"))
	reg.GaugeFunc("gsgcn_inflight",
		"Admitted queries currently in flight (between admission and response).",
		labels, func() float64 { return float64(g.inflight.Load()) })
}
