package mat

// Bit-exactness suite for the sharded dense kernels (ISSUE 1): for
// every kernel, the parallel execution must equal the serial one
// element-for-element (==, not within tolerance), across odd shapes —
// 1x1, prime dimensions, fewer rows than workers, and empty matrices.
// This is what lets training produce identical loss traces at every
// Workers setting.

import (
	"sync"
	"testing"

	"gsgcn/internal/rng"
)

func randMat(r *rng.RNG, rows, cols int) *Dense {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// exactCases are (m, k, n) triples for dst(m x n) = a(m x k) * b(k x n).
var exactCases = []struct {
	name    string
	m, k, n int
}{
	{"1x1", 1, 1, 1},
	{"prime-rows", 7, 13, 5},
	{"rows-lt-workers", 3, 17, 3},
	{"empty-rows", 0, 5, 4},
	{"single-col", 31, 1, 1},
	{"tall", 257, 19, 23},
	{"wide", 5, 3, 127},
}

var workerSweep = []int{2, 3, 8, 64}

func requireIdentical(t *testing.T, tag string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: %v != %v", tag, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulBitExactAcrossWorkers(t *testing.T) {
	for _, tc := range exactCases {
		r := rng.New(17)
		a := randMat(r, tc.m, tc.k)
		b := randMat(r, tc.k, tc.n)
		want := New(tc.m, tc.n)
		Mul(want, a, b, 1)
		for _, w := range workerSweep {
			got := New(tc.m, tc.n)
			got.Fill(99) // catch rows a sharding bug might skip
			Mul(got, a, b, w)
			requireIdentical(t, tc.name, got, want)
		}
	}
}

func TestMulBTBitExactAcrossWorkers(t *testing.T) {
	for _, tc := range exactCases {
		r := rng.New(23)
		a := randMat(r, tc.m, tc.k)
		b := randMat(r, tc.n, tc.k) // dst = a * bᵀ is m x n
		want := New(tc.m, tc.n)
		MulBT(want, a, b, 1)
		for _, w := range workerSweep {
			got := New(tc.m, tc.n)
			got.Fill(99)
			MulBT(got, a, b, w)
			requireIdentical(t, tc.name, got, want)
		}
	}
}

func TestMulATBitExactAcrossWorkers(t *testing.T) {
	// MulAT reduces over rows, so its shard decomposition is fixed by
	// row count alone; include sizes around the shard-block boundary.
	cases := append(exactCases[:len(exactCases):len(exactCases)],
		struct {
			name    string
			m, k, n int
		}{"block-boundary", 64 * 3, 11, 7},
		struct {
			name    string
			m, k, n int
		}{"beyond-max-shards", 64*64 + 13, 5, 3},
	)
	for _, tc := range cases {
		r := rng.New(29)
		a := randMat(r, tc.m, tc.k)
		b := randMat(r, tc.m, tc.n) // dst = aᵀ * b is k x n
		want := New(tc.k, tc.n)
		MulAT(want, a, b, 1)
		for _, w := range workerSweep {
			got := New(tc.k, tc.n)
			got.Fill(99)
			MulAT(got, a, b, w)
			requireIdentical(t, tc.name, got, want)
		}
	}
}

// TestMulATMatchesReference pins MulAT's sharded arithmetic to the
// naive O(k·m·n) definition within round-off.
func TestMulATMatchesReference(t *testing.T) {
	r := rng.New(31)
	a := randMat(r, 203, 9)
	b := randMat(r, 203, 6)
	got := New(9, 6)
	MulAT(got, a, b, 8)
	ref := New(9, 6)
	for c := 0; c < 9; c++ {
		for j := 0; j < 6; j++ {
			s := 0.0
			for row := 0; row < 203; row++ {
				s += a.At(row, c) * b.At(row, j)
			}
			ref.Set(c, j, s)
		}
	}
	if d := got.MaxAbsDiff(ref); d > 1e-12 {
		t.Fatalf("MulAT deviates from reference by %g", d)
	}
}

func TestRowOpsBitExactAcrossWorkers(t *testing.T) {
	for _, rows := range []int{0, 1, 3, 7, 64, 251} {
		r := rng.New(41)
		a := randMat(r, rows, 13)
		for _, w := range workerSweep {
			acc := randMat(rng.New(43), rows, 13)
			accP := acc.Clone()
			AddScaled(acc, a, 0.37)
			AddScaledP(accP, a, 0.37, w)
			requireIdentical(t, "AddScaledP", accP, acc)
		}
	}
}

// TestConcurrentMulCallers runs sharded matmuls from many goroutines
// against the shared worker pool at once; with -race this checks that
// concurrent kernel dispatch never crosses shard ownership.
func TestConcurrentMulCallers(t *testing.T) {
	r := rng.New(53)
	a := randMat(r, 61, 17)
	b := randMat(r, 17, 13)
	want := New(61, 13)
	Mul(want, a, b, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got := New(61, 13)
				Mul(got, a, b, 8)
				dw := New(17, 13)
				MulAT(dw, randMat(rng.New(uint64(rep+1)), 61, 17), randMat(rng.New(uint64(rep+2)), 61, 13), 8)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent Mul diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestGatherRowsPBitExact(t *testing.T) {
	r := rng.New(47)
	src := randMat(r, 97, 7)
	for _, count := range []int{0, 1, 3, 97, 200} {
		idx := make([]int, count)
		for i := range idx {
			idx[i] = r.Intn(97)
		}
		want := New(count, 7)
		GatherRows(want, src, idx)
		for _, w := range workerSweep {
			got := New(count, 7)
			got.Fill(99)
			GatherRowsP(got, src, idx, w)
			requireIdentical(t, "GatherRowsP", got, want)
		}
	}
}
