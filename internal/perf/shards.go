package perf

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Region is one parallel region of a recorded run: the Timer segment
// it ran in ("" outside every Timer.Time) and the measured time of
// each of its chunks, in chunk order.
type Region struct {
	Segment string
	Chunks  []time.Duration
}

// recorder collects the regions of one Record call.
type recorder struct {
	mu      sync.Mutex
	segment string
	depth   int // regions open; a region opened inside one is nested
	regions []Region
}

// active is the running Record call's recorder, nil when none runs:
// loading it is all that recording costs Parallel otherwise.
var active atomic.Pointer[recorder]

// Record runs fn with recording on and returns, in order, the parallel
// regions fn ran. A recorded region runs its chunks one after another
// on the caller, timing each: the chunks Parallel would dispatch, with
// the same worker ids and bounds, so fn computes the same bits. A
// region nested inside a chunk runs the same way but is no region of
// its own: its time is its parent chunk's. Recording is process-wide —
// any goroutine's Parallel runs serially meanwhile — so it belongs in
// a harness with nothing else running, and Record calls do not nest.
func Record(fn func()) []Region {
	rec := &recorder{}
	if !active.CompareAndSwap(nil, rec) {
		panic("perf: Record called while recording")
	}
	defer active.Store(nil)
	fn()
	return rec.regions
}

// region runs chunks 0..k-1 of a region serially, timing each, and
// keeps the region unless it is nested.
func (r *recorder) region(k int, run func(w int)) {
	r.mu.Lock()
	outer := r.depth == 0
	r.depth++
	reg := Region{Segment: r.segment, Chunks: make([]time.Duration, k)}
	r.mu.Unlock()
	for w := range reg.Chunks {
		start := time.Now()
		run(w)
		reg.Chunks[w] = time.Since(start)
	}
	r.mu.Lock()
	r.depth--
	if outer {
		r.regions = append(r.regions, reg)
	}
	r.mu.Unlock()
}

// swap makes seg the segment of the regions that follow and returns
// the one before.
func (r *recorder) swap(seg string) (prev string) {
	r.mu.Lock()
	prev, r.segment = r.segment, seg
	r.mu.Unlock()
	return prev
}

// SimShardTimes runs shard(0) .. shard(n-1) serially and returns each
// one's measured duration: independent units of work (sampler
// instances) for GroupWall to fold onto any core count up to n.
func SimShardTimes(n int, shard func(i int)) []time.Duration {
	times := make([]time.Duration, n)
	for i := range times {
		start := time.Now()
		shard(i)
		times[i] = time.Since(start)
	}
	return times
}

// GroupWall folds per-shard times into `cores` contiguous groups and
// returns the simulated parallel timing under cfg: each group is one
// simulated core; groups scheduled beyond cfg.SocketCores pay the
// NUMA penalty; wall = slowest group + barrier term.
func GroupWall(times []time.Duration, cores int, cfg SimConfig) SimResult {
	n := len(times)
	cores = max(1, min(cores, n))
	barrier := cfg.BarrierNS
	if barrier == 0 {
		barrier = 1500
	}
	chunk := (n + cores - 1) / cores
	var total, slowest float64
	groups := 0
	for lo := 0; lo < n; lo += chunk {
		var sum float64
		for _, t := range times[lo:min(lo+chunk, n)] {
			sum += float64(t)
		}
		total += sum
		if cfg.SocketCores > 0 && cfg.NUMAPenalty > 1 && groups >= cfg.SocketCores {
			sum *= cfg.NUMAPenalty
		}
		slowest = max(slowest, sum)
		groups++
	}
	wall := slowest + barrier*math.Log2(float64(groups)+1)
	return SimResult{Wall: time.Duration(wall), Total: time.Duration(total), MaxShard: time.Duration(slowest), Shards: groups}
}
