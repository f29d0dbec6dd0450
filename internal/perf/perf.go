// Package perf provides the parallel-execution substrate used across
// the repository: real goroutine-based data-parallel loops, wall-clock
// timers, and the simulated multicore executor behind the scaling
// figures.
//
// The simulator exists because the paper's evaluation (Figs. 3-4,
// Table II) ran on a dual-socket 40-core Xeon, while the reproduction
// host may have very few cores. Record runs real code with every
// parallel region's chunks serial and timed, in the decomposition a
// real run would dispatch (so with the same bits); GroupWall folds a
// region's chunk times onto p simulated cores: the slowest group plus
// a modeled barrier and an optional cross-socket (NUMA) penalty.
package perf

import (
	"runtime"
	"sync"
	"time"
)

// Parallel runs fn over the index range [0, n) split into at most
// workers contiguous chunks, dispatched over the shared long-lived
// worker pool. fn receives the worker id and the half-open range
// [lo, hi) it owns. It blocks until all chunks complete. workers <= 1
// (or n <= 1) degrades to a serial call. Parallel does not assume a
// work grain — an index may be one float or one whole sampler
// instance — so callers whose indices are cheap should bound dispatch
// overhead with ParallelMin instead.
//
// The chunk decomposition depends only on (n, workers): chunk w covers
// [w*ceil(n/workers), ...). Kernels that assign each output element to
// exactly one chunk therefore produce bit-identical results however
// the pool schedules the chunks — or, under Record, when the chunks
// run one after another on the caller.
func Parallel(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	run := func(w int) {
		lo := w * chunk
		if hi := min(lo+chunk, n); lo < hi {
			fn(w, lo, hi)
		}
	}
	if rec := active.Load(); rec != nil {
		rec.region((n+chunk-1)/chunk, run)
		return
	}
	Shared().Run(workers, run)
}

// ParallelMin is Parallel with a minimum chunk grain: it caps the
// chunk count so every chunk spans at least minChunk indices, running
// small inputs serially rather than paying pool dispatch for a few
// cheap indices each. The effective decomposition is a pure function
// of (n, minChunk, workers), so kernels whose output elements are
// each owned by one index keep their results bit-identical at every
// worker count.
func ParallelMin(n, minChunk, workers int, fn func(worker, lo, hi int)) {
	if minChunk > 1 && workers > 1 {
		if byGrain := n / minChunk; workers > byGrain {
			workers = byGrain
		}
	}
	Parallel(n, workers, fn)
}

// NumWorkers returns the default worker count for real parallel loops:
// GOMAXPROCS at the time of the call.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }

// SimConfig parameterizes the simulated multicore executor.
type SimConfig struct {
	// BarrierNS is the modeled cost, in nanoseconds, of one barrier
	// among p simulated cores; the total added per region is
	// BarrierNS * log2(p+1). The default (used when zero) is 1500ns,
	// a typical cost for a pthread-style tree barrier.
	BarrierNS float64
	// SocketCores is the number of cores per socket. Shards beyond
	// this count pay the NUMAPenalty multiplier on their measured
	// time, modeling remote-socket memory reads (the paper observes
	// this bend between 20 and 40 cores in Fig. 4A). Zero disables
	// the penalty.
	SocketCores int
	// NUMAPenalty multiplies the measured time of shards scheduled on
	// the remote socket. Ignored when SocketCores is zero. A value
	// <= 1 disables the penalty.
	NUMAPenalty float64
}

// DefaultSim mirrors the paper's platform: dual-socket, 20 cores per
// socket, with a mild 15% remote-read penalty.
var DefaultSim = SimConfig{BarrierNS: 1500, SocketCores: 20, NUMAPenalty: 1.15}

// SimResult reports the outcome of one simulated parallel region.
type SimResult struct {
	Wall     time.Duration // simulated parallel wall time (critical path + sync)
	Total    time.Duration // sum of all shard times (serial work)
	MaxShard time.Duration // slowest shard, before sync/NUMA adjustments
	Shards   int
}

// Speedup returns Total / Wall, the simulated parallel speedup of the
// region relative to executing all shards serially.
func (r SimResult) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Total) / float64(r.Wall)
}

// Timer accumulates named wall-clock segments; it backs the
// execution-time breakdown in Fig. 3D.
type Timer struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

// NewTimer returns an empty Timer.
func NewTimer() *Timer { return &Timer{spans: make(map[string]time.Duration)} }

// Time runs fn and charges its duration to the named segment. Under
// Record, the parallel regions fn runs are tagged with the segment.
func (t *Timer) Time(name string, fn func()) {
	if rec := active.Load(); rec != nil {
		defer rec.swap(rec.swap(name)) // the outer segment again once fn returns
	}
	start := time.Now()
	fn()
	t.Add(name, time.Since(start))
}

// Add charges d to the named segment.
func (t *Timer) Add(name string, d time.Duration) {
	t.mu.Lock()
	t.spans[name] += d
	t.mu.Unlock()
}

// Get returns the accumulated duration of the named segment.
func (t *Timer) Get(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[name]
}

// Segments returns a copy of all accumulated segments.
func (t *Timer) Segments() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.spans))
	for k, v := range t.spans {
		out[k] = v
	}
	return out
}

// Total returns the sum over all segments.
func (t *Timer) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, v := range t.spans {
		sum += v
	}
	return sum
}

// Reset clears all segments.
func (t *Timer) Reset() {
	t.mu.Lock()
	t.spans = make(map[string]time.Duration)
	t.mu.Unlock()
}
