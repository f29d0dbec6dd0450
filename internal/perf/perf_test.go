package perf

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsgcn/internal/testutil"
)

func TestParallelCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			Parallel(n, workers, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestParallelWorkerIDsDistinct(t *testing.T) {
	const n, workers = 100, 4
	seen := make([]int32, workers)
	Parallel(n, workers, func(w, lo, hi int) {
		atomic.AddInt32(&seen[w], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Errorf("worker %d invoked %d times, want 1", w, c)
		}
	}
}

func TestParallelZeroAndNegative(t *testing.T) {
	called := false
	Parallel(0, 4, func(_, _, _ int) { called = true })
	Parallel(-5, 4, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("Parallel invoked fn for empty range")
	}
}

// TestRecordKeepsTheDecomposition: under Record a region runs exactly
// the chunks Parallel dispatches — the same worker ids and bounds — in
// chunk order on the caller, and records one time per chunk. A call
// that runs serially (one chunk) is no region.
func TestRecordKeepsTheDecomposition(t *testing.T) {
	type chunk struct{ w, lo, hi int }
	for _, c := range []struct{ n, grain, workers int }{
		{100, 0, 4}, {103, 0, 7}, {5, 0, 4}, {64, 0, 1},
		{3, 0, 8}, {1, 0, 4}, // fewer indices than workers
		{100, 30, 8}, {1000, 64, 100}, {50, 64, 4}, // ParallelMin's grain cap: 3 chunks, 15, serial
	} {
		var mu sync.Mutex
		var plain []chunk
		ParallelMin(c.n, c.grain, c.workers, func(w, lo, hi int) {
			mu.Lock()
			plain = append(plain, chunk{w, lo, hi})
			mu.Unlock()
		})
		sort.Slice(plain, func(i, j int) bool { return plain[i].w < plain[j].w })
		var recorded []chunk
		regions := Record(func() {
			ParallelMin(c.n, c.grain, c.workers, func(w, lo, hi int) {
				recorded = append(recorded, chunk{w, lo, hi})
			})
		})
		if !slices.Equal(recorded, plain) {
			t.Errorf("%+v: recorded chunks %v, Parallel's %v", c, recorded, plain)
		}
		want := 1
		if len(plain) == 1 {
			want = 0
		}
		if len(regions) != want || want == 1 && len(regions[0].Chunks) != len(plain) {
			t.Errorf("%+v: regions %v for %d chunks", c, regions, len(plain))
		}
	}
}

// TestRecordNestedRegionChargedToParent: a region inside a recorded
// chunk is no region of its own; its time lands once, in that chunk.
func TestRecordNestedRegionChargedToParent(t *testing.T) {
	regions := Record(func() {
		Parallel(2, 2, func(w, _, _ int) {
			if w == 1 {
				Parallel(4, 4, func(_, _, _ int) { busy(2 * time.Millisecond) })
			}
		})
	})
	if len(regions) != 1 || len(regions[0].Chunks) != 2 {
		t.Fatalf("regions = %v, want one of two chunks", regions)
	}
	if c := regions[0].Chunks; c[1] < 8*time.Millisecond || c[0] >= c[1] {
		t.Errorf("chunk times %v: want the nested 4 x 2ms in chunk 1 only", c)
	}
}

// TestRecordTagsSegments: a region carries the Timer segment it ran
// in, and recording ends when Record returns.
func TestRecordTagsSegments(t *testing.T) {
	tm := NewTimer()
	noop := func(_, _, _ int) {}
	regions := Record(func() {
		Parallel(2, 2, noop)
		tm.Time("weight", func() { Parallel(2, 2, noop) })
		Parallel(2, 2, noop)
	})
	var got []string
	for _, r := range regions {
		got = append(got, r.Segment)
	}
	if want := []string{"", "weight", ""}; !slices.Equal(got, want) {
		t.Errorf("segments %q, want %q", got, want)
	}
	if active.Load() != nil {
		t.Error("recording still on after Record returned")
	}
}

// TestRecordWithConcurrentCallers: Parallel and Timer.Time called from
// other goroutines during Record still cover their ranges (serially,
// since recording is process-wide); run under -race, it holds the
// recorder's shared state.
func TestRecordWithConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	Record(func() {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var hits atomic.Int64
				NewTimer().Time("x", func() {
					Parallel(100, 4, func(_, lo, hi int) { hits.Add(int64(hi - lo)) })
				})
				if hits.Load() != 100 {
					t.Errorf("covered %d of 100 indices", hits.Load())
				}
			}()
		}
		Parallel(8, 4, func(_, _, _ int) {})
		wg.Wait()
	})
}

// simRegion records one Parallel(n, workers, fn) region and returns
// its chunk times: the simulated executor's input for GroupWall.
func simRegion(t *testing.T, n, workers int, fn func(w, lo, hi int)) []time.Duration {
	t.Helper()
	regions := Record(func() { Parallel(n, workers, fn) })
	if len(regions) != 1 {
		t.Fatalf("Parallel(%d, %d) recorded %d regions, want 1", n, workers, len(regions))
	}
	return regions[0].Chunks
}

// TestSimParallelCoversShards: a simulated region runs every shard
// once, in order, and folds onto its own shard count with positive
// timings.
func TestSimParallelCoversShards(t *testing.T) {
	var order []int
	chunks := simRegion(t, 5, 5, func(w, _, _ int) {
		order = append(order, w)
		busy(10 * time.Microsecond)
	})
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("shards ran as %v, want 0..4 in order", order)
	}
	res := GroupWall(chunks, len(chunks), SimConfig{})
	if res.Shards != 5 {
		t.Errorf("Shards = %d, want 5", res.Shards)
	}
	if res.Wall <= 0 || res.Total <= 0 {
		t.Errorf("non-positive timing: %+v", res)
	}
}

// TestSimParallelCriticalPath: the simulated wall of a recorded region
// is its slowest chunk, so one slow chunk caps the speedup well below
// p while balanced chunks approach p.
func TestSimParallelCriticalPath(t *testing.T) {
	// Chunk times are wall-clock, so a descheduled chunk on a busy CI
	// host can inflate one; testutil.BestOf retries before declaring
	// the simulator wrong.
	speedup := func(chunk func(w int) time.Duration) float64 {
		chunks := simRegion(t, 4, 4, func(w, _, _ int) { busy(chunk(w)) })
		return GroupWall(chunks, 4, SimConfig{}).Speedup()
	}
	if s, ok := testutil.BestOf(3, func() (float64, bool) {
		s := speedup(func(w int) time.Duration {
			if w == 0 {
				return 10 * time.Millisecond
			}
			return time.Millisecond
		})
		return s, s <= 2.5
	}); !ok {
		t.Errorf("imbalanced region reported speedup %.2f, want < 2.5", s)
	}
	if s, ok := testutil.BestOf(3, func() (float64, bool) {
		s := speedup(func(int) time.Duration { return 5 * time.Millisecond })
		return s, s >= 3 && s <= 4.5
	}); !ok {
		t.Errorf("balanced region reported speedup %.2f, want ~4", s)
	}
}

// TestSimParallelNUMAPenalty: chunks folded past SocketCores pay the
// NUMA penalty on their recorded time.
func TestSimParallelNUMAPenalty(t *testing.T) {
	cfg := SimConfig{SocketCores: 2, NUMAPenalty: 3.0}
	// Chunks 2,3 pay 3x, so wall ~6ms while total ~8ms: speedup < 4/2.
	if s, ok := testutil.BestOf(3, func() (float64, bool) {
		chunks := simRegion(t, 4, 4, func(_, _, _ int) { busy(2 * time.Millisecond) })
		s := GroupWall(chunks, 4, cfg).Speedup()
		return s, s <= 2.0
	}); !ok {
		t.Errorf("NUMA-penalized speedup %.2f, want < 2.0", s)
	}
}

// TestSimRangePartition: a recorded region visits every index of its
// range exactly once, over one chunk per worker.
func TestSimRangePartition(t *testing.T) {
	const n = 103
	hits := make([]int, n)
	chunks := simRegion(t, n, 7, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if len(chunks) != 7 {
		t.Errorf("%d chunks, want 7", len(chunks))
	}
}

// TestSimRangeMoreShardsThanWork: asking for more workers than indices
// records at most one chunk per index, and folds onto at most as many
// simulated cores.
func TestSimRangeMoreShardsThanWork(t *testing.T) {
	hits := make([]int, 3)
	chunks := simRegion(t, 3, 16, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
	if res := GroupWall(chunks, 16, SimConfig{}); len(chunks) > 3 || res.Shards > 3 {
		t.Errorf("%d chunks on %d simulated cores, want <= 3", len(chunks), res.Shards)
	}
}

func TestTimerAccumulates(t *testing.T) {
	tm := NewTimer()
	tm.Add("a", time.Second)
	tm.Add("a", time.Second)
	tm.Add("b", time.Millisecond)
	if got := tm.Get("a"); got != 2*time.Second {
		t.Errorf("Get(a) = %v, want 2s", got)
	}
	if got := tm.Total(); got != 2*time.Second+time.Millisecond {
		t.Errorf("Total = %v", got)
	}
	seg := tm.Segments()
	if len(seg) != 2 {
		t.Errorf("Segments has %d entries, want 2", len(seg))
	}
	tm.Reset()
	if tm.Total() != 0 {
		t.Error("Reset did not clear segments")
	}
}

func TestTimerTime(t *testing.T) {
	tm := NewTimer()
	tm.Time("x", func() { busy(2 * time.Millisecond) })
	if tm.Get("x") < time.Millisecond {
		t.Errorf("Time charged %v, want >= 1ms", tm.Get("x"))
	}
}

// busy spins for approximately d without sleeping, so durations are
// attributable to CPU work in both real and recorded runs.
func busy(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestSpeedupZeroWall(t *testing.T) {
	if (SimResult{}).Speedup() != 0 {
		t.Error("zero-wall SimResult should report 0 speedup")
	}
}
