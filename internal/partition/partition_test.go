package partition

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/testutil"
)

func smallGraph(tb testing.TB) *graph.CSR {
	tb.Helper()
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func randomFeatures(r *rng.RNG, n, f int) *mat.Dense {
	m := mat.New(n, f)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// refPropagate is the obvious O(E*f) reference.
func refPropagate(src *mat.Dense, g *graph.CSR, norm Norm) *mat.Dense {
	dst := mat.New(src.Rows, src.Cols)
	for v := 0; v < g.N; v++ {
		nb := g.Neighbors(int32(v))
		if len(nb) == 0 {
			continue
		}
		for _, u := range nb {
			w := 1.0
			if norm == NormDst {
				w = 1 / float64(len(nb))
			} else {
				w = 1 / float64(g.Degree(u))
			}
			for j := 0; j < src.Cols; j++ {
				dst.Data[v*src.Cols+j] += w * src.At(int(u), j)
			}
		}
	}
	return dst
}

func TestPropagateMatchesReference(t *testing.T) {
	cfg := datasets.Config{Name: "t", Vertices: 300, TargetEdges: 2400, FeatureDim: 4, NumClasses: 4, Seed: 3}
	g := datasets.Generate(cfg).G
	r := rng.New(1)
	src := randomFeatures(r, g.N, 24)
	for _, norm := range []Norm{NormDst, NormSrc} {
		want := refPropagate(src, g, norm)
		for _, q := range []int{1, 3, 8, 24, 100} {
			for _, workers := range []int{1, 4} {
				dst := mat.New(g.N, 24)
				Propagate(dst, src, g, norm, q, workers)
				if d := dst.MaxAbsDiff(want); d > 1e-12 {
					t.Errorf("norm=%v q=%d workers=%d: max diff %g", norm, q, workers, d)
				}
			}
		}
	}
}

func TestPropagateMeanSemantics(t *testing.T) {
	g := smallGraph(t) // 5-cycle: every vertex has exactly 2 neighbors
	src := mat.New(5, 2)
	for v := 0; v < 5; v++ {
		src.Set(v, 0, float64(v))
		src.Set(v, 1, 1)
	}
	dst := mat.New(5, 2)
	Propagate(dst, src, g, NormDst, 2, 1)
	// Vertex 0's neighbors are 1 and 4: mean of col0 = 2.5, col1 = 1.
	if got := dst.At(0, 0); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("dst[0,0] = %v, want 2.5", got)
	}
	if got := dst.At(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("dst[0,1] = %v, want 1", got)
	}
}

func TestPropagateIsolatedVertexZero(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	src := mat.New(3, 2)
	src.Fill(7)
	dst := mat.New(3, 2)
	dst.Fill(99) // stale values must be overwritten
	Propagate(dst, src, g, NormDst, 1, 1)
	if dst.At(2, 0) != 0 || dst.At(2, 1) != 0 {
		t.Errorf("isolated vertex aggregated to %v, want 0", dst.Row(2))
	}
	if dst.At(0, 0) != 7 {
		t.Errorf("vertex 0 should aggregate neighbor value 7, got %v", dst.At(0, 0))
	}
}

func TestNormSrcIsTransposeOfNormDst(t *testing.T) {
	// <y, NormDst(x)> == <NormSrc(y), x> for all x, y — the adjoint
	// identity the backward pass relies on.
	cfg := datasets.Config{Name: "t", Vertices: 120, TargetEdges: 900, FeatureDim: 4, NumClasses: 4, Seed: 5}
	g := datasets.Generate(cfg).G
	r := rng.New(2)
	f := func(seed uint32) bool {
		rr := rng.New(uint64(seed))
		_ = rr
		x := randomFeatures(r, g.N, 3)
		y := randomFeatures(r, g.N, 3)
		ax := mat.New(g.N, 3)
		Propagate(ax, x, g, NormDst, 2, 1)
		aty := mat.New(g.N, 3)
		Propagate(aty, y, g, NormSrc, 2, 1)
		var left, right float64
		for i := range ax.Data {
			left += y.Data[i] * ax.Data[i]
			right += aty.Data[i] * x.Data[i]
		}
		return math.Abs(left-right) <= 1e-9*(1+math.Abs(left))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropagate2DMatches(t *testing.T) {
	cfg := datasets.Config{Name: "t", Vertices: 200, TargetEdges: 1500, FeatureDim: 4, NumClasses: 4, Seed: 7}
	g := datasets.Generate(cfg).G
	src := randomFeatures(rng.New(3), g.N, 16)
	want := refPropagate(src, g, NormDst)
	for _, pv := range []int{1, 2, 5, 200} {
		for _, q := range []int{1, 4, 16} {
			dst := mat.New(g.N, 16)
			Propagate2D(dst, src, g, NormDst, pv, q, 3)
			if d := dst.MaxAbsDiff(want); d > 1e-12 {
				t.Errorf("pv=%d q=%d: max diff %g", pv, q, d)
			}
		}
	}
}

// TestColumnChunks pins the chunking every schedule shares: a chunk is
// never narrower than a panel, boundaries fall on panel multiples, a
// row under two panels is one chunk, and the chunks cover [0, f)
// exactly once.
func TestColumnChunks(t *testing.T) {
	for _, c := range []struct {
		f, q   int
		bounds []int
	}{
		{16, 13, []int{0, 16}},
		{1, 1, []int{0, 1}},
		{0, 4, []int{0, 0}},
		{63, 63, []int{0, 63}},
		{64, 64, []int{0, 32, 64}},
		{64, 0, []int{0, 64}},
		{100, 2, []int{0, 32, 100}},
		{602, 1, []int{0, 602}},
		{602, 13, []int{0, 32, 64, 128, 160, 192, 256, 288, 352, 384, 416, 480, 512, 602}},
		{602, 602, []int{0, 32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416, 448, 480, 512, 544, 602}},
	} {
		n := colChunks(c.f, c.q)
		if n != len(c.bounds)-1 {
			t.Errorf("f=%d q=%d: %d chunks, want %d", c.f, c.q, n, len(c.bounds)-1)
			continue
		}
		for i := 0; i < n; i++ {
			if lo, hi := chunkCols(c.f, n, i); lo != c.bounds[i] || hi != c.bounds[i+1] {
				t.Errorf("f=%d q=%d: chunk %d = [%d,%d), want [%d,%d)", c.f, c.q, i, lo, hi, c.bounds[i], c.bounds[i+1])
			}
		}
	}
	for f := 0; f <= 700; f++ {
		for _, q := range []int{1, 2, 3, 7, 13, 40, f} {
			n, next := colChunks(f, q), 0
			for i := 0; i < n; i++ {
				lo, hi := chunkCols(f, n, i)
				if lo != next || lo%panel != 0 || hi-lo < min(f, panel) || n > 1 && hi-lo < panel {
					t.Fatalf("f=%d q=%d: chunk %d of %d = [%d,%d) after %d", f, q, i, n, lo, hi, next)
				}
				next = hi
			}
			if next != f || n > max(q, 1) {
				t.Fatalf("f=%d q=%d: %d chunks end at %d", f, q, n, next)
			}
		}
	}
}

// TestPropagateSchedulesMatchSerial: whatever the chunk count asked for
// and the worker count — so whatever column chunks and vertex ranges
// the schedule cuts — Propagate returns the serial per-vertex loop's
// bits, on a graph with isolated vertices.
func TestPropagateSchedulesMatchSerial(t *testing.T) {
	g := holeyGraph(t, 83)
	for _, f := range []int{1, 8, 16, 33, 64, 602} {
		src := randomFeatures(rng.New(uint64(f)), g.N, f)
		dst := mat.New(g.N, f)
		for _, norm := range []Norm{NormDst, NormSrc} {
			want := refVector(src, g, norm)
			for _, q := range []int{1, 13, f} {
				for _, workers := range []int{1, 2, 4, 8} {
					dst.Fill(99.5)
					Propagate(dst, src, g, norm, q, workers)
					sameBits(t, fmt.Sprintf("f=%d norm=%d q=%d workers=%d", f, norm, q, workers), dst, 0, g.N, 0, f, want, 0)
				}
			}
		}
	}
}

// TestPropagateListMatchesPropagate: PropagateList gives each listed
// vertex's row Propagate's bits and every other row +0, into a
// destination full of garbage, for lists that are empty, every vertex,
// scattered, in runs, and the first and last vertex alone, on a graph
// with isolated vertices, under both operators, chunk counts that cut
// columns and worker counts that cut the list; a list that is not
// strictly ascending vertices of the graph panics.
func TestPropagateListMatchesPropagate(t *testing.T) {
	g := holeyGraph(t, 83)
	r := rng.New(41)
	lists := map[string][]int{"empty": {}, "ends": {0, g.N - 1}}
	var every, scattered, runs []int
	for v := 0; v < g.N; v++ {
		every = append(every, v)
		if r.Intn(3) != 0 {
			scattered = append(scattered, v)
		}
		if v%10 < 4 {
			runs = append(runs, v)
		}
	}
	lists["every"], lists["scattered"], lists["runs"] = every, scattered, runs
	for _, f := range []int{1, 16, 64, 100} {
		src := randomFeatures(rng.New(uint64(f)), g.N, f)
		dst := mat.New(g.N, f)
		for _, norm := range []Norm{NormDst, NormSrc} {
			full := refVector(src, g, norm)
			for name, rows := range lists {
				want := mat.New(g.N, f)
				for _, v := range rows {
					copy(want.Row(v), full.Row(v))
				}
				for _, q := range []int{1, 3} {
					for _, workers := range []int{1, 2, 3, 8} {
						dst.Fill(99.5)
						PropagateList(dst, src, g, norm, rows, q, workers)
						sameBits(t, fmt.Sprintf("f=%d norm=%d rows %s q=%d workers=%d", f, norm, name, q, workers), dst, 0, g.N, 0, f, want, 0)
					}
				}
			}
		}
	}
	for name, rows := range map[string][]int{"descending": {5, 2}, "repeated": {3, 3}, "negative": {-1}, "past the end": {g.N}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row list %s did not panic", name)
				}
			}()
			PropagateList(mat.New(g.N, 4), mat.New(g.N, 4), g, NormDst, rows, 1, 1)
		}()
	}
}

// TestSimPropagateMatchesAndTimes: a feature-partitioned propagation
// recorded for the simulated executor returns the serial bits, in one
// timed chunk per worker, and its balanced chunks fold to a speedup.
func TestSimPropagateMatchesAndTimes(t *testing.T) {
	cfg := datasets.Config{Name: "t", Vertices: 400, TargetEdges: 3000, FeatureDim: 4, NumClasses: 4, Seed: 9}
	g := datasets.Generate(cfg).G
	src := randomFeatures(rng.New(4), g.N, 64)
	want := mat.New(g.N, 64)
	Propagate(want, src, g, NormDst, 64, 1)
	dst := mat.New(g.N, 64)
	record := func() []time.Duration {
		regions := perf.Record(func() { Propagate(dst, src, g, NormDst, 64, 8) })
		if len(regions) != 1 {
			t.Fatalf("recorded %d regions, want 1", len(regions))
		}
		return regions[0].Chunks
	}
	if chunks := record(); len(chunks) != 8 {
		t.Errorf("chunks = %d, want 8", len(chunks))
	}
	if d := dst.MaxAbsDiff(want); d != 0 {
		t.Errorf("recorded Propagate differs: %g", d)
	}
	// The chunk times behind Speedup are microsecond-scale wall-clock
	// measurements; a descheduled chunk on a busy CI host can inflate
	// one of them, so accept the best of three attempts.
	if s, ok := testutil.BestOf(3, func() (float64, bool) {
		s := perf.GroupWall(record(), 8, perf.SimConfig{}).Speedup()
		return s, s >= 3
	}); !ok {
		t.Errorf("feature-partitioned propagation sim speedup %.2f at p=8, want > 3 (balanced chunks)", s)
	}
}

func TestOptimalQ(t *testing.T) {
	// Case 1 of Theorem 2: cores dominate.
	m := CommModel{N: 1000, AvgDeg: 10, F: 512, Cores: 40, CacheBytes: 1 << 20}
	// 8nf = 8*1000*512 = 4,096,000 bytes; /1MiB -> 4 partitions; C=40 wins.
	if q := m.OptimalQ(); q != 40 {
		t.Errorf("OptimalQ = %d, want 40", q)
	}
	// Case 2: cache dominates.
	m.CacheBytes = 64 << 10
	// ceil(4096000 / 65536) = 63 > 40.
	if q := m.OptimalQ(); q != 63 {
		t.Errorf("OptimalQ = %d, want 63", q)
	}
	// Q never exceeds f.
	m.F = 16
	m.Cores = 100
	if q := m.OptimalQ(); q != 16 {
		t.Errorf("OptimalQ = %d, want clamped 16", q)
	}
}

func TestTheorem2ApproxRatio(t *testing.T) {
	// Paper's typical values: n <= 8000, f = 512, d = 15, C <= 136,
	// S_cache = 256KB. The feature-only solution must be within 2x of
	// the lower bound.
	m := CommModel{N: 8000, AvgDeg: 15, F: 512, Cores: 40, CacheBytes: 256 << 10}
	if !m.FeasibleTheorem2() {
		t.Fatal("paper's parameters should satisfy Theorem 2 preconditions")
	}
	if r := m.ApproxRatio(); r > 2 {
		t.Errorf("approximation ratio %.3f exceeds 2", r)
	}
}

func TestTheorem2RatioQuick(t *testing.T) {
	// Property: for any feasible configuration, ApproxRatio <= 2.
	f := func(nSeed, fSeed, cSeed uint16) bool {
		n := int(nSeed)%8000 + 100
		feat := int(fSeed)%1024 + 64
		cores := int(cSeed)%64 + 1
		m := CommModel{N: n, AvgDeg: 15, F: feat, Cores: cores, CacheBytes: 256 << 10}
		if !m.FeasibleTheorem2() {
			return true // precondition violated; theorem silent
		}
		return m.ApproxRatio() <= 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGammaPBounds(t *testing.T) {
	cfg := datasets.Config{Name: "t", Vertices: 500, TargetEdges: 4000, FeatureDim: 4, NumClasses: 4, Seed: 11}
	g := datasets.Generate(cfg).G
	prev := -1.0
	for _, p := range []int{1, 2, 4, 8, 16} {
		gamma := GammaP(g, p)
		if gamma < 1.0/float64(p)-1e-9 || gamma > 1+1e-9 {
			t.Errorf("gamma(%d) = %.4f outside [1/p, 1]", p, gamma)
		}
		_ = prev
		prev = gamma
	}
	if g1 := GammaP(g, 1); math.Abs(g1-1) > 1e-9 {
		t.Errorf("gamma(1) = %v, want 1", g1)
	}
}

func TestBestVolumeNeverBeatsLowerBoundHalf(t *testing.T) {
	// The exhaustive optimum can be at most 2x better than the
	// feature-only solution under Theorem 2 conditions.
	cfg := datasets.Config{Name: "t", Vertices: 2000, TargetEdges: 15000, FeatureDim: 4, NumClasses: 4, Seed: 13}
	g := datasets.Generate(cfg).G
	m := CommModel{N: g.N, AvgDeg: g.AvgDegree(), F: 512, Cores: 40, CacheBytes: 256 << 10}
	_, _, best := m.BestVolume(g, 16)
	featureOnly := m.Volume(1, m.OptimalQ(), 1)
	if best <= 0 {
		t.Fatal("BestVolume found no feasible solution")
	}
	if featureOnly > 2*best+1e-6 {
		t.Errorf("feature-only volume %.0f exceeds 2x optimum %.0f", featureOnly, best)
	}
}

// TestBestVolumeRoundsLikeOptimalQ: at P = 1 the exhaustive search asks
// for OptimalQ's partition count — the same ceiling at an exact multiple
// of the cache, the same clamp to f — so its optimum never exceeds the
// feature-only volume it is compared with.
func TestBestVolumeRoundsLikeOptimalQ(t *testing.T) {
	cfg := datasets.Config{Name: "t", Vertices: 256, TargetEdges: 2000, FeatureDim: 4, NumClasses: 4, Seed: 17}
	g := datasets.Generate(cfg).G
	// 8·n·f = 8·256·256 = 2·S_cache exactly.
	m := CommModel{N: g.N, AvgDeg: g.AvgDegree(), F: 256, Cores: 1, CacheBytes: 256 << 10}
	if q := m.OptimalQ(); q != 2 {
		t.Fatalf("OptimalQ = %d, want 2", q)
	}
	for _, m := range []CommModel{m, {N: g.N, AvgDeg: g.AvgDegree(), F: 16, Cores: 100, CacheBytes: 256 << 10}} {
		if p, q, v := m.BestVolume(g, 1); p != 1 || q != m.OptimalQ() || v != m.Volume(1, q, 1) {
			t.Errorf("f=%d cores=%d: P=1 candidate (P=%d, Q=%d, %.0f), want (1, %d, %.0f)",
				m.F, m.Cores, p, q, v, m.OptimalQ(), m.Volume(1, m.OptimalQ(), 1))
		}
		if _, _, best := m.BestVolume(g, 16); best > m.Volume(1, m.OptimalQ(), 1) {
			t.Errorf("f=%d cores=%d: exhaustive best %.0f above the feature-only volume %.0f",
				m.F, m.Cores, best, m.Volume(1, m.OptimalQ(), 1))
		}
	}
}

// TestChunksOne: the shapes on which one chunk is the answer — the
// degenerate ones, and the measured ones whose best count is 1.
func TestChunksOne(t *testing.T) {
	for _, c := range []struct {
		n      int
		avgDeg float64
		f      int
	}{
		{0, 25, 602},        // no vertices
		{675, 0, 602},       // no edges: no source row is read
		{100000, 25, 63},    // under two panels
		{675, 25, 0},        // no columns
		{1, 1, 100000},      // one vertex's slab fits the cache at any width
		{675, 25, 300},      // the train_prop subgraph's slab fits at 300
		{435, 7.6, 602},     // the train_gemm subgraph's fits at 602
		{425, 8.6, 50},      // train_gemm's own width
		{3494, 42.5, 128},   // the reddit graph: past 2048 vertices a chunk
		{3494, 42.5, 602},   // costs more than the cache it can save
		{1000000, 50, 2000}, // gigabytes of slab
	} {
		if got := Chunks(c.n, c.avgDeg, c.f); got != 1 {
			t.Errorf("Chunks(%d, %g, %d) = %d, want 1", c.n, c.avgDeg, c.f, got)
		}
	}
}

// TestChunksWithinCap: whatever the shape, Chunks asks for a count the
// schedule runs as asked — at least 1, at most colChunks' cap.
func TestChunksWithinCap(t *testing.T) {
	for _, n := range []int{1, 10, 100, 256, 675, 2000, 10000} {
		for _, d := range []float64{1, 8, 25} {
			for f := 0; f <= 4096; f += 7 {
				q := Chunks(n, d, f)
				if q < 1 || q > colChunks(f, f) || colChunks(f, q) != q {
					t.Fatalf("Chunks(%d, %g, %d) = %d, cap %d", n, d, f, q, colChunks(f, f))
				}
			}
		}
	}
}

// TestChunksBelowTheorem2 pins the motivating case: on the train_prop
// subgraph's shape at its input width, the machine-priced count is the
// measured best (2) and below the paper's closed form (13).
func TestChunksBelowTheorem2(t *testing.T) {
	m := CommModel{N: 675, AvgDeg: 25, F: 602, Cores: 1, CacheBytes: 256 << 10}
	q := Chunks(m.N, m.AvgDeg, m.F)
	if q != 2 || q >= m.OptimalQ() {
		t.Errorf("Chunks = %d, OptimalQ = %d; want 2, below OptimalQ", q, m.OptimalQ())
	}
}

func TestPropagateShapePanics(t *testing.T) {
	g := smallGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Propagate(mat.New(4, 2), mat.New(5, 2), g, NormDst, 1, 1)
}

// BenchmarkPropagate is the source of Chunks' table: the forward
// operator at one core on a graph of the train_prop subgraph's shape
// (675 vertices, ~25 neighbors each), at train_gemm's input width, a
// middle one and train_prop's, over the chunk counts of the table.
// Every case reports the count Chunks picks for its width as solver_q.
// Bytes are the rows a pass reads (one per directed edge) and writes
// (one per vertex).
func BenchmarkPropagate(b *testing.B) {
	cfg := datasets.Config{Name: "b", Vertices: 675, TargetEdges: 11700, FeatureDim: 4, NumClasses: 4, Seed: 1}
	g := datasets.Generate(cfg).G
	for _, f := range []int{50, 300, 602} {
		src := randomFeatures(rng.New(1), g.N, f)
		dst := mat.New(g.N, f)
		solver := Chunks(g.N, g.AvgDegree(), f)
		for _, q := range []int{1, 2, 3, 4, 6, 9, 13} {
			b.Run(fmt.Sprintf("f=%d/q=%d", f, q), func(b *testing.B) {
				b.SetBytes((g.NumDirectedEdges() + int64(g.N)) * int64(f) * 8)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Propagate(dst, src, g, NormDst, q, 1)
				}
				b.ReportMetric(float64(solver), "solver_q")
			})
		}
	}
}
