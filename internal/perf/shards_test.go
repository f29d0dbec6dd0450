package perf

import (
	"testing"
	"time"
)

func TestSimShardTimesRunsAll(t *testing.T) {
	var seen []int
	ts := SimShardTimes(6, func(i int) { seen = append(seen, i) })
	if len(ts) != 6 || len(seen) != 6 {
		t.Fatalf("len(times)=%d len(seen)=%d", len(ts), len(seen))
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("shards executed out of order: %v", seen)
		}
	}
	for i, d := range ts {
		if d < 0 {
			t.Errorf("shard %d has negative time %v", i, d)
		}
	}
}

func TestGroupWallSingleCore(t *testing.T) {
	times := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	res := GroupWall(times, 1, SimConfig{})
	if res.Total != 6*time.Millisecond {
		t.Errorf("Total = %v, want 6ms", res.Total)
	}
	// One group: wall ~ total + barrier.
	if res.Wall < res.Total {
		t.Errorf("Wall %v < Total %v on one core", res.Wall, res.Total)
	}
	if res.Shards != 1 {
		t.Errorf("Shards = %d, want 1", res.Shards)
	}
}

func TestGroupWallBalanced(t *testing.T) {
	times := make([]time.Duration, 8)
	for i := range times {
		times[i] = 10 * time.Millisecond
	}
	res := GroupWall(times, 4, SimConfig{})
	// Each group holds 2 shards = 20ms; speedup ~4.
	if res.MaxShard != 20*time.Millisecond {
		t.Errorf("MaxShard = %v, want 20ms", res.MaxShard)
	}
	if s := res.Speedup(); s < 3.5 || s > 4.1 {
		t.Errorf("speedup = %.2f, want ~4", s)
	}
}

func TestGroupWallImbalanced(t *testing.T) {
	times := []time.Duration{100 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	res := GroupWall(times, 4, SimConfig{})
	if s := res.Speedup(); s > 1.2 {
		t.Errorf("imbalanced speedup = %.2f, want ~1", s)
	}
}

func TestGroupWallNUMA(t *testing.T) {
	times := make([]time.Duration, 4)
	for i := range times {
		times[i] = 10 * time.Millisecond
	}
	res := GroupWall(times, 4, SimConfig{SocketCores: 2, NUMAPenalty: 2})
	// Groups 2,3 pay 2x: wall ~20ms, total 40ms, speedup ~2.
	if s := res.Speedup(); s > 2.2 {
		t.Errorf("NUMA speedup = %.2f, want <= ~2", s)
	}
}

func TestGroupWallMoreCoresThanShards(t *testing.T) {
	times := []time.Duration{time.Millisecond, time.Millisecond}
	res := GroupWall(times, 16, SimConfig{})
	if res.Shards > 2 {
		t.Errorf("Shards = %d, want <= 2", res.Shards)
	}
}

func TestGroupWallEquivalentToSimRangeGrouping(t *testing.T) {
	// Grouping 8 shards onto 2 cores must equal a direct 2-way split:
	// group sums match chunked partition sums.
	times := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8} // arbitrary units
	res := GroupWall(times, 2, SimConfig{BarrierNS: 1})
	// Groups: [1..4] = 10, [5..8] = 26.
	if res.MaxShard != 26 {
		t.Errorf("MaxShard = %v, want 26", res.MaxShard)
	}
	if res.Total != 36 {
		t.Errorf("Total = %v, want 36", res.Total)
	}
}
