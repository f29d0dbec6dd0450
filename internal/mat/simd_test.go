package mat

// Differential suite for the vector primitives (ISSUE 12): the AVX2
// routines must return the bits of the portable Go loops for every
// length and alignment, for ordinary values and for the ones where a
// fused multiply-add, a different accumulator layout or a reordered
// reduction would show — signed zeros, subnormals, magnitudes whose
// products overflow or underflow. NaNs are compared by class (the
// payload depends on operand order, which Go does not fix). The
// second half pins the tiled GEMM loops to untiled loops over the
// portable primitives.

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/rng"
)

func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", tag, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d: %v (%#016x) != %v (%#016x)", tag, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// valueClasses generate operands; each is paired with every alpha.
var valueClasses = []struct {
	name string
	gen  func(r *rng.RNG) float64
}{
	{"normal", func(r *rng.RNG) float64 { return r.NormFloat64() }},
	{"signed-zeros", func(r *rng.RNG) float64 {
		switch r.Intn(3) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return r.NormFloat64()
	}},
	{"subnormal", func(r *rng.RNG) float64 {
		// Half subnormals, half values near 1, so that sums and
		// products land on both sides of the normal range's edge.
		if r.Intn(2) == 0 {
			return r.NormFloat64()
		}
		v := math.Float64frombits(r.Uint64() & (1<<52 - 1))
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"huge-tiny", func(r *rng.RNG) float64 {
		// Products overflow to ±Inf and underflow to ±0; sums of
		// infinities of both signs turn into NaN.
		mags := []float64{1e300, 1e-300, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e154, 1e-154, 1}
		v := mags[r.Intn(len(mags))] * (1 + r.Float64())
		if r.Intn(2) == 0 {
			v = -v
		}
		return v
	}},
	{"specials", func(r *rng.RNG) float64 {
		switch r.Intn(12) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return r.NormFloat64()
	}},
}

var alphas = []float64{0.37, -1.5, 1, 0, math.Copysign(0, -1), 1e-310, 1e300, math.Inf(1), math.NaN()}

const (
	maxDiffLen    = 130
	maxDiffOffset = 3
)

// offsetSlice returns n fresh values at element offset off of a larger
// backing array, so 8-byte-aligned starts of every residue mod 32 are
// exercised.
func offsetSlice(r *rng.RNG, gen func(*rng.RNG) float64, off, n int) []float64 {
	buf := make([]float64, off+n+maxDiffOffset+1)
	for i := range buf {
		buf[i] = gen(r)
	}
	return buf[off : off+n : off+n]
}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this host; the portable loops are the only path")
	}
}

func TestAxpyAVX2MatchesPortable(t *testing.T) {
	requireAVX2(t)
	for _, vc := range valueClasses {
		r := rng.New(101)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				src := offsetSlice(r, vc.gen, off, n)
				base := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), n)
				for _, alpha := range alphas {
					want := append([]float64(nil), base...)
					got := append([]float64(nil), base...)
					axpyGo(want, src, alpha)
					axpyAVX2(got, src, alpha)
					requireSameBits(t, fmt.Sprintf("%s n=%d off=%d alpha=%v", vc.name, n, off, alpha), got, want)
				}
			}
		}
	}
}

func TestDotAVX2MatchesPortable(t *testing.T) {
	requireAVX2(t)
	for _, vc := range valueClasses {
		r := rng.New(103)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				x := offsetSlice(r, vc.gen, off, n)
				y := offsetSlice(r, vc.gen, (off+2)%(maxDiffOffset+1), n)
				want, got := dotGo(x, y), dotAVX2(x, y)
				if !sameBits(got, want) {
					t.Fatalf("%s n=%d off=%d: %v (%#016x) != %v (%#016x)", vc.name, n, off,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestDot4AVX2MatchesPortable(t *testing.T) {
	requireAVX2(t)
	for _, vc := range valueClasses {
		r := rng.New(107)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				x := offsetSlice(r, vc.gen, off, n)
				// Rows packed back to back (stride n) and with a gap.
				for _, stride := range []int{n, n + 3} {
					y := offsetSlice(r, vc.gen, (off+1)%(maxDiffOffset+1), 3*stride+n)
					var want, got [4]float64
					for j := range want {
						want[j] = dotGo(x, y[j*stride:j*stride+n])
					}
					dot4AVX2(got[:], x, y, stride)
					requireSameBits(t, fmt.Sprintf("%s n=%d off=%d stride=%d", vc.name, n, off, stride), got[:], want[:])
				}
			}
		}
	}
}

func TestAddScaleAVX2MatchPortable(t *testing.T) {
	requireAVX2(t)
	for _, vc := range valueClasses {
		r := rng.New(109)
		for n := 0; n <= maxDiffLen; n++ {
			for off := 0; off <= maxDiffOffset; off++ {
				src := offsetSlice(r, vc.gen, off, n)
				base := offsetSlice(r, vc.gen, (off+3)%(maxDiffOffset+1), n)
				tag := fmt.Sprintf("%s n=%d off=%d", vc.name, n, off)

				want := append([]float64(nil), base...)
				got := append([]float64(nil), base...)
				addGo(want, src)
				addAVX2(got, src)
				requireSameBits(t, "add "+tag, got, want)

				for _, alpha := range alphas {
					copy(want, base)
					copy(got, base)
					scaleGo(want, alpha)
					scaleAVX2(got, alpha)
					requireSameBits(t, fmt.Sprintf("scale %s alpha=%v", tag, alpha), got, want)
				}
			}
		}
	}
}

// TestDispatchMatchesPortable runs on every host: whatever axpy, dot,
// dot4, add and scale dispatch to, across the cut-over length, they
// return the portable loops' bits.
func TestDispatchMatchesPortable(t *testing.T) {
	r := rng.New(113)
	gen := valueClasses[0].gen
	for n := 0; n <= 48; n++ {
		x := offsetSlice(r, gen, 1, n)
		y := offsetSlice(r, gen, 2, 4*n)
		base := offsetSlice(r, gen, 3, n)
		tag := fmt.Sprintf("n=%d", n)

		want := append([]float64(nil), base...)
		got := append([]float64(nil), base...)
		axpyGo(want, x, 0.37)
		Axpy(got, x, 0.37)
		requireSameBits(t, "axpy "+tag, got, want)

		addGo(want, x)
		AddTo(got, x)
		requireSameBits(t, "add "+tag, got, want)

		scaleGo(want, -1.5)
		Scal(got, -1.5)
		requireSameBits(t, "scale "+tag, got, want)

		if g, w := Dot(x, y), dotGo(x, y[:n]); !sameBits(g, w) {
			t.Fatalf("dot %s: %v != %v", tag, g, w)
		}
		var w4, g4 [4]float64
		for j := range w4 {
			w4[j] = dotGo(x, y[j*n:(j+1)*n])
		}
		dot4(g4[:], x, y, n)
		requireSameBits(t, "dot4 "+tag, g4[:], w4[:])
	}
}

func mustPanic(t *testing.T, tag string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", tag)
		}
	}()
	fn()
}

// TestPrimitiveLengthContract: the assembly has no bounds checks, so
// the entry points must reject a short second operand — at every
// length, on both sides of the cut-over — and, where the assembly
// would run, before a single element is written.
func TestPrimitiveLengthContract(t *testing.T) {
	for _, n := range []int{1, simdMinLen - 1, simdMinLen, simdMinLen + 1, 17, 64, 130} {
		long := make([]float64, n)
		short := make([]float64, n-1, n+8) // spare capacity must not rescue it
		for i := range long {
			long[i] = 1
		}
		for i := range short {
			short[i] = 1
		}
		mustPanic(t, fmt.Sprintf("Axpy n=%d", n), func() { Axpy(long, short, 2) })
		mustPanic(t, fmt.Sprintf("AddTo n=%d", n), func() { AddTo(long, short) })
		mustPanic(t, fmt.Sprintf("Dot n=%d", n), func() { Dot(long, short) })
		mustPanic(t, fmt.Sprintf("dot4 short rows n=%d", n), func() {
			dot4(make([]float64, 4), long, make([]float64, 4*n-1, 4*n+8), n)
		})
		mustPanic(t, fmt.Sprintf("dot4 short out n=%d", n), func() {
			dot4(make([]float64, 3, 8), long, make([]float64, 4*n), n)
		})
		if n >= simdMinLen {
			for i, v := range long {
				if v != 1 {
					t.Fatalf("n=%d: destination element %d written before the length check", n, i)
				}
			}
		}

		// A longer second operand is legal: only len(dst) (len(x))
		// elements of it take part.
		extra := make([]float64, n+5)
		for i := range extra {
			extra[i] = 3
		}
		dst := make([]float64, n)
		Axpy(dst, extra, 2)
		AddTo(dst, extra)
		for i, v := range dst {
			if v != 9 {
				t.Fatalf("n=%d: element %d = %v after axpy+add with a longer source, want 9", n, i, v)
			}
		}
		for i := range long {
			long[i] = 1 // a Go loop below the cut-over may have written before it panicked
		}
		if got := Dot(long, extra); got != float64(3*n) {
			t.Errorf("n=%d: dot with a longer y = %v, want %v", n, got, 3*n)
		}
	}
}

func TestPrimitivesOnEmptySlices(t *testing.T) {
	var empty []float64
	Axpy(empty, empty, 2)
	AddTo(empty, nil)
	Scal(nil, 2)
	if got := Dot(nil, empty); got != 0 {
		t.Errorf("dot of empty slices = %v", got)
	}
	out := []float64{9, 9, 9, 9}
	dot4(out, nil, nil, 0)
	requireSameBits(t, "dot4 of empty rows", out, []float64{0, 0, 0, 0})
	if useAVX2 {
		axpyAVX2(nil, nil, 2)
		addAVX2(nil, nil)
		scaleAVX2(nil, 2)
		if got := dotAVX2(nil, nil); got != 0 {
			t.Errorf("dotAVX2 of empty slices = %v", got)
		}
		dot4AVX2(out, nil, nil, 0)
		requireSameBits(t, "dot4AVX2 of empty rows", out, []float64{0, 0, 0, 0})
	}
}

// Untiled GEMM references over the portable primitives: the loops as
// they were before tiling, one output row (or element) at a time.

func refMul(a, b *Dense) *Dense {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			if av != 0 {
				axpyGo(dst.Row(i), b.Row(k), av)
			}
		}
	}
	return dst
}

// refMulAT follows MulAT's contract: mulATShards row shards, each
// accumulated from zero in row order, summed in shard order.
func refMulAT(a, b *Dense) *Dense {
	k, n := a.Cols, b.Cols
	accum := func(acc *Dense, lo, hi int) {
		for r := lo; r < hi; r++ {
			for c, av := range a.Row(r) {
				if av != 0 {
					axpyGo(acc.Row(c), b.Row(r), av)
				}
			}
		}
	}
	dst := New(k, n)
	shards := mulATShards(a.Rows, k, n)
	if shards <= 1 {
		accum(dst, 0, a.Rows)
		return dst
	}
	partials := make([]*Dense, shards)
	for s := range partials {
		partials[s] = New(k, n)
		accum(partials[s], s*a.Rows/shards, (s+1)*a.Rows/shards)
	}
	for i := range dst.Data {
		v := 0.0
		for _, p := range partials {
			v += p.Data[i]
		}
		dst.Data[i] = v
	}
	return dst
}

func refMulBT(a, b *Dense) *Dense {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, j, dotGo(a.Row(i), b.Row(j)))
		}
	}
	return dst
}

// sparseMat is randMat with about half the entries exactly zero, like
// a ReLU output.
func sparseMat(r *rng.RNG, rows, cols int) *Dense {
	m := randMat(r, rows, cols)
	for i := range m.Data {
		if r.Intn(2) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// tiledCases are (m, k, n) with row counts off every tile boundary,
// inner dimensions on both sides of simdMinLen and the widths the
// training workloads use.
var tiledCases = []struct{ m, k, n int }{
	{1, 1, 1},
	{5, 1, 17},
	{7, 50, 128},
	{13, 256, 33},
	{9, 602, 8},
	{67, 19, 23},
	{131, 50, 37},
	{203, 256, 121},
	{6, 602, 19},
}

func TestTiledGEMMMatchesUntiledPortable(t *testing.T) {
	for _, tc := range tiledCases {
		for _, fill := range []struct {
			name string
			gen  func(*rng.RNG, int, int) *Dense
		}{{"dense", randMat}, {"half-zeros", sparseMat}} {
			r := rng.New(uint64(127 + tc.m + tc.k + tc.n))
			a := fill.gen(r, tc.m, tc.k)
			b := fill.gen(r, tc.k, tc.n)  // Mul: a(m x k) * b(k x n)
			bt := fill.gen(r, tc.n, tc.k) // MulBT: a(m x k) * bt(n x k)ᵀ
			c := fill.gen(r, tc.m, tc.n)  // MulAT: a(m x k)ᵀ * c(m x n)
			wantMul, wantBT, wantAT := refMul(a, b), refMulBT(a, bt), refMulAT(a, c)
			for _, workers := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%dx%dx%d %s workers=%d", tc.m, tc.k, tc.n, fill.name, workers)
				got := New(tc.m, tc.n)
				got.Fill(99)
				Mul(got, a, b, workers)
				requireSameBits(t, "Mul "+tag, got.Data, wantMul.Data)

				got.Fill(99)
				MulBT(got, a, bt, workers)
				requireSameBits(t, "MulBT "+tag, got.Data, wantBT.Data)

				gotAT := New(tc.k, tc.n)
				gotAT.Fill(99)
				MulAT(gotAT, a, c, workers)
				requireSameBits(t, "MulAT "+tag, gotAT.Data, wantAT.Data)
			}
		}
	}
}

// TestMulATReusesScratch: after a warm-up call the partial buffers
// come from the pool, so a sharded MulAT allocates (almost) nothing;
// the fresh-buffer version allocated shards x k x n floats per call.
func TestMulATReusesScratch(t *testing.T) {
	r := rng.New(131)
	a := randMat(r, 256, 32)
	b := randMat(r, 256, 32)
	dst := New(32, 32)
	if mulATShards(a.Rows, a.Cols, b.Cols) < 2 {
		t.Fatal("shape does not shard; the test would not reach the scratch")
	}
	MulAT(dst, a, b, 1)
	want := dst.Clone()
	avg := testing.AllocsPerRun(20, func() { MulAT(dst, a, b, 1) })
	// A collection between runs may empty the pool once; the closures
	// handed to perf.Parallel account for the rest.
	if avg > 4 {
		t.Errorf("MulAT allocates %.1f objects per call with warm scratch", avg)
	}
	requireSameBits(t, "MulAT on recycled scratch", dst.Data, want.Data)
}

func benchVec(b *testing.B, fn func(x, y []float64)) {
	for _, n := range []int{8, 128, 256, 602} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = r.NormFloat64(), r.NormFloat64()
			}
			b.ReportAllocs()
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(x, y)
			}
		})
	}
}

var dotSink float64

func BenchmarkAxpy(b *testing.B) {
	// alpha = 1e-9 keeps dst bounded over any b.N.
	benchVec(b, func(x, y []float64) { Axpy(x, y, 1e-9) })
}

func BenchmarkDot(b *testing.B) {
	benchVec(b, func(x, y []float64) { dotSink += Dot(x, y) })
}
