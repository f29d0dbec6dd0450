package mat

import (
	"math"
	"testing"
	"testing/quick"

	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// naiveMul is the reference triple loop used to validate the
// optimized kernels.
func naiveMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomMat(r *rng.RNG, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {17, 31, 13}, {64, 32, 48}, {100, 1, 100},
	}
	for _, s := range shapes {
		a := randomMat(r, s.m, s.k)
		b := randomMat(r, s.k, s.n)
		want := naiveMul(a, b)
		for _, workers := range []int{1, 2, 4} {
			got := New(s.m, s.n)
			Mul(got, a, b, workers)
			if !got.Equal(want, 1e-10) {
				t.Errorf("Mul %dx%dx%d workers=%d: max diff %g", s.m, s.k, s.n, workers, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestMulATMatchesNaive(t *testing.T) {
	r := rng.New(2)
	for _, s := range []struct{ m, k, n int }{{3, 4, 5}, {65, 7, 9}, {128, 16, 32}} {
		a := randomMat(r, s.m, s.k)
		b := randomMat(r, s.m, s.n)
		want := naiveMul(Transpose(a), b)
		for _, workers := range []int{1, 3} {
			got := New(s.k, s.n)
			MulAT(got, a, b, workers)
			if !got.Equal(want, 1e-9) {
				t.Errorf("MulAT %v workers=%d: max diff %g", s, workers, got.MaxAbsDiff(want))
			}
		}
	}
}

// TestMulBTMatchesNaive runs at every kernel level, with b's row count
// n on and off the sixteen-row groups of dot16 and the inner dimension
// k on and off its 4-element chunks.
func TestMulBTMatchesNaive(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		r := rng.New(3)
		for _, s := range []struct{ m, k, n int }{{3, 4, 5}, {33, 8, 21}, {19, 13, 37}, {5, 64, 48}} {
			a := randomMat(r, s.m, s.k)
			b := randomMat(r, s.n, s.k)
			want := naiveMul(a, Transpose(b))
			for _, workers := range []int{1, 4} {
				got := New(s.m, s.n)
				MulBT(got, a, b, workers)
				if !got.Equal(want, 1e-10) {
					t.Errorf("MulBT %v workers=%d: max diff %g", s, workers, got.MaxAbsDiff(want))
				}
			}
		}
	})
}

// TestMulShardsMatchesMul: a Mul recorded for the simulated executor
// runs its row shards one after another and still returns the serial
// Mul's bits, with one timed shard per worker.
func TestMulShardsMatchesMul(t *testing.T) {
	r := rng.New(4)
	a := randomMat(r, 40, 16)
	b := randomMat(r, 16, 24)
	want := New(40, 24)
	Mul(want, a, b, 1)
	for _, p := range []int{1, 2, 5, 40, 64} {
		got := New(40, 24)
		regions := perf.Record(func() { Mul(got, a, b, p) })
		if !got.Equal(want, 0) {
			t.Errorf("recorded Mul p=%d differs from Mul", p)
		}
		if p == 1 {
			if len(regions) != 0 {
				t.Errorf("serial Mul recorded %d regions", len(regions))
			}
			continue
		}
		if len(regions) != 1 || len(regions[0].Chunks) != min(p, 40) {
			t.Fatalf("recorded Mul p=%d: regions %v, want one of %d shards", p, regions, min(p, 40))
		}
		if res := perf.GroupWall(regions[0].Chunks, p, perf.SimConfig{}); res.Wall <= 0 {
			t.Errorf("recorded Mul p=%d reported non-positive wall time", p)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched shapes did not panic")
		}
	}()
	Mul(New(2, 2), New(2, 3), New(2, 2), 1)
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	a := randomMat(r, 7, 11)
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Error("transpose of transpose differs from original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	b := FromData(2, 2, []float64{10, 20, 30, 40})
	sum := New(2, 2)
	Add(sum, a, b)
	if sum.At(1, 1) != 44 {
		t.Errorf("Add: got %v", sum.Data)
	}
	diff := New(2, 2)
	Sub(diff, b, a)
	if diff.At(0, 0) != 9 {
		t.Errorf("Sub: got %v", diff.Data)
	}
	diff.Scale(2)
	if diff.At(0, 0) != 18 {
		t.Errorf("Scale: got %v", diff.Data)
	}
	AddScaled(sum, a, -1)
	if sum.At(0, 0) != 10 {
		t.Errorf("AddScaled: got %v", sum.Data)
	}
}

func TestApply(t *testing.T) {
	a := FromData(1, 3, []float64{-1, 0, 2})
	out := New(1, 3)
	Apply(out, a, func(v float64) float64 { return math.Max(v, 0) })
	want := []float64{0, 0, 2}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("Apply relu: got %v", out.Data)
			break
		}
	}
	// In-place application.
	Apply(a, a, func(v float64) float64 { return v * v })
	if a.Data[0] != 1 || a.Data[2] != 4 {
		t.Errorf("Apply in place: got %v", a.Data)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	r := rng.New(6)
	a := randomMat(r, 5, 3)
	b := randomMat(r, 5, 4)
	cat := New(5, 7)
	ConcatCols(cat, a, b)
	a2, b2 := New(5, 3), New(5, 4)
	SplitCols(a2, b2, cat)
	if !a2.Equal(a, 0) || !b2.Equal(b, 0) {
		t.Error("ConcatCols/SplitCols round trip failed")
	}
	if cat.At(2, 0) != a.At(2, 0) || cat.At(2, 3) != b.At(2, 0) {
		t.Error("ConcatCols misplaced columns")
	}
}

func TestGatherRows(t *testing.T) {
	a := FromData(4, 2, []float64{0, 1, 10, 11, 20, 21, 30, 31})
	dst := New(3, 2)
	GatherRows(dst, a, []int{3, 0, 2})
	want := []float64{30, 31, 0, 1, 20, 21}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("GatherRows: got %v want %v", dst.Data, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromData(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestDotAxpyQuick(t *testing.T) {
	// Property: dot(x, y) computed by the unrolled kernel matches a
	// plain accumulation, and axpy is linear.
	f := func(seed uint32, ln uint8) bool {
		n := int(ln)%67 + 1
		r := rng.New(uint64(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
		}
		plain := 0.0
		for i := range x {
			plain += x[i] * y[i]
		}
		if math.Abs(Dot(x, y)-plain) > 1e-9*(1+math.Abs(plain)) {
			return false
		}
		dst := make([]float64, n)
		copy(dst, y)
		Axpy(dst, x, 2.5)
		for i := range dst {
			if math.Abs(dst[i]-(y[i]+2.5*x[i])) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulLinearityQuick(t *testing.T) {
	// Property: (a1+a2)*b == a1*b + a2*b.
	r := rng.New(8)
	f := func(seed uint16) bool {
		m, k, n := int(seed)%6+1, int(seed/7)%6+1, int(seed/49)%6+1
		a1 := randomMat(r, m, k)
		a2 := randomMat(r, m, k)
		b := randomMat(r, k, n)
		sum := New(m, k)
		Add(sum, a1, a2)
		left := New(m, n)
		Mul(left, sum, b, 1)
		r1, r2 := New(m, n), New(m, n)
		Mul(r1, a1, b, 1)
		Mul(r2, a2, b, 1)
		right := New(m, n)
		Add(right, r1, r2)
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEqualAndMaxAbsDiffSeeNaN: a NaN opposite a number is a difference
// of +Inf, not the 0 that math.Abs(NaN) > tol once made it; two NaNs,
// like two equal infinities, differ by 0; -0 equals +0 (by value).
func TestEqualAndMaxAbsDiffSeeNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		v, w  float64
		diff  float64
		equal bool // at tol 1e-9
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-12, 1e-12, true},
		{1, 2, 1, false},
		{nan, 1, inf, false},
		{0, nan, inf, false},
		{nan, inf, inf, false},
		{nan, nan, 0, true},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, inf, false},
		{inf, 1, inf, false},
		{math.Copysign(0, -1), 0, 0, true},
	} {
		for _, swap := range []bool{false, true} {
			v, w := tc.v, tc.w
			if swap {
				v, w = w, v
			}
			a := FromData(1, 3, []float64{5, v, -2})
			b := FromData(1, 3, []float64{5, w, -2})
			if d := a.MaxAbsDiff(b); !(d == tc.diff || math.Abs(d-tc.diff) <= 1e-15) {
				t.Errorf("MaxAbsDiff(%v, %v) = %v, want %v", v, w, d, tc.diff)
			}
			if got := a.Equal(b, 1e-9); got != tc.equal {
				t.Errorf("Equal(%v, %v, 1e-9) = %t, want %t", v, w, got, tc.equal)
			}
		}
	}
}

func TestFrobeniusAndSum(t *testing.T) {
	a := FromData(2, 2, []float64{3, 4, 0, 0})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
	if got := a.Sum(); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
}

// gemmShapes are the layers of the two training workloads of the
// benchmark, as (rows of the subgraph) x (layer input) x (layer
// output), with the zeros a ReLU leaves in a hidden layer's input, and
// a dense square for comparison with other libraries. A training step
// runs all three products below on each. The first layer of each
// workload is also timed cold (coldShapes).
var gemmShapes = []struct {
	name    string
	m, k, n int
	sparse  bool
}{
	{"434x256x128-half-zeros", 434, 256, 128, true},
	{"434x50x128", 434, 50, 128, false},
	{"434x256x121-half-zeros", 434, 256, 121, true},
	{"700x602x8", 700, 602, 8, false},
	{"700x16x8-half-zeros", 700, 16, 8, true},
	{"700x16x41-half-zeros", 700, 16, 41, true},
	{"256x256x256", 256, 256, 256, false},
}

// coldShapes are the shapes whose Mul and MulAT are also timed with
// the layer's input h evicted from the caches before every call — the
// "<shape>-cold" sub-benchmarks. That is how a training step meets
// them: between the forward product and the weight gradient the rest
// of the step passes through the caches, and the 3.4 MB input of the
// 700x602x8 layer no longer fits the L2 of one core. A warm run
// under-priced that weight gradient badly while it read h down its
// columns: about 1.0 ms warm against 2.4 ms cold, where the forward
// product took 0.5 and 0.65.
var coldShapes = map[string]bool{"700x602x8": true, "434x256x128-half-zeros": true}

// evictBuf is written whole to push everything else out of the caches:
// 32 MB, sixteen times the 2 MB L2 of a core of the development host.
var evictBuf []float64

func evictCaches() {
	if evictBuf == nil {
		evictBuf = make([]float64, 4<<20)
	}
	for i := range evictBuf {
		evictBuf[i] = float64(i)
	}
}

// benchGEMM times, on one core at every shape, the product run builds
// from the layer's input h (m x k), weights w (k x n) and output
// gradient dz (m x n), once at each kernel level the host has: the
// levels of one shape run back to back in one process, so a comparison
// between them is not at the mercy of the host's drift between runs.
// With cold set, the coldShapes are timed a second time with the
// caches cleared (timer stopped) before every call.
func benchGEMM(b *testing.B, cold bool, run func(h, w, dz *Dense) func()) {
	for _, sh := range gemmShapes {
		for _, evict := range []bool{false, true} {
			if evict && !(cold && coldShapes[sh.name]) {
				continue
			}
			name := sh.name
			if evict {
				name += "-cold"
			}
			b.Run(name, func(b *testing.B) {
				for lvl := levelGo; lvl <= hostLevel(); lvl++ {
					lvl := lvl
					b.Run(levelNames[lvl], func(b *testing.B) {
						forceLevel(b, lvl)
						r := rng.New(1)
						h := randomMat(r, sh.m, sh.k)
						if sh.sparse {
							h = sparseMat(r, sh.m, sh.k)
						}
						step := run(h, randomMat(r, sh.k, sh.n), randomMat(r, sh.m, sh.n))
						b.ReportAllocs()
						b.SetBytes(int64(2 * sh.m * sh.k * sh.n)) // so that "MB/s" reads MFLOP/s, zeros counted
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if evict {
								b.StopTimer()
								evictCaches()
								b.StartTimer()
							}
							step()
						}
					})
				}
			})
		}
	}
}

// BenchmarkMul is the forward product z = h·w.
func BenchmarkMul(b *testing.B) {
	benchGEMM(b, true, func(h, w, dz *Dense) func() {
		z := New(h.Rows, w.Cols)
		return func() { Mul(z, h, w, 1) }
	})
}

// BenchmarkMulAT is the weight gradient dw = hᵀ·dz.
func BenchmarkMulAT(b *testing.B) {
	benchGEMM(b, true, func(h, w, dz *Dense) func() {
		dw := New(w.Rows, w.Cols)
		return func() { MulAT(dw, h, dz, 1) }
	})
}

// BenchmarkMulBT is the input gradient dh = dz·wᵀ.
func BenchmarkMulBT(b *testing.B) {
	benchGEMM(b, false, func(h, w, dz *Dense) func() {
		dh := New(h.Rows, h.Cols)
		return func() { MulBT(dh, dz, w, 1) }
	})
}

func TestMulRangeMatchesMul(t *testing.T) {
	r := rng.New(21)
	a := randomMat(r, 20, 12)
	b := randomMat(r, 12, 9)
	want := New(20, 9)
	Mul(want, a, b, 1)
	got := New(20, 9)
	// Compute in three uneven row chunks.
	mulRange(got, a, b, 0, 7)
	mulRange(got, a, b, 7, 8)
	mulRange(got, a, b, 8, 20)
	if !got.Equal(want, 0) {
		t.Error("piecewise mulRange differs from Mul")
	}
}

func TestMulBTRangeMatchesMulBT(t *testing.T) {
	r := rng.New(22)
	a := randomMat(r, 15, 8)
	b := randomMat(r, 11, 8)
	want := New(15, 11)
	MulBT(want, a, b, 1)
	got := New(15, 11)
	MulBTRange(got, a, b, 0, 6)
	MulBTRange(got, a, b, 6, 15)
	if !got.Equal(want, 0) {
		t.Error("piecewise MulBTRange differs from MulBT")
	}
}

func TestReuse(t *testing.T) {
	m := Reuse(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Reuse(nil) shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	base := &m.Data[0]
	// Shrinking reuses the backing array.
	s := Reuse(m, 2, 3)
	if s != m || &s.Data[0] != base {
		t.Error("shrinking Reuse reallocated")
	}
	if s.Rows != 2 || s.Cols != 3 || len(s.Data) != 6 {
		t.Errorf("shrunk shape = %dx%d len %d", s.Rows, s.Cols, len(s.Data))
	}
	// Growing within capacity reuses too.
	g := Reuse(s, 4, 3)
	if g != s || &g.Data[0] != base {
		t.Error("growth within capacity reallocated")
	}
	// Growing beyond capacity allocates fresh storage of the right shape.
	big := Reuse(g, 10, 10)
	if big == g {
		t.Error("growth beyond capacity did not reallocate")
	}
	if big.Rows != 10 || big.Cols != 10 || len(big.Data) != 100 {
		t.Errorf("big shape = %dx%d len %d", big.Rows, big.Cols, len(big.Data))
	}
}
