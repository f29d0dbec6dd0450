package mat

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gsgcn/internal/rng"
)

// pairValue draws an element of a pair form's operand: a quarter zeros
// of either sign, an eighth subnormals, a few NaNs and infinities, the
// rest ordinary numbers.
func pairValue(r *rng.RNG) float64 {
	switch r.Intn(32) {
	case 0, 1, 2, 3:
		return 0
	case 4, 5, 6, 7:
		return math.Copysign(0, -1)
	case 8, 9, 10, 11:
		return math.Float64frombits(r.Uint64()&(1<<52-1)) * float64(1-2*r.Intn(2))
	case 12:
		return math.NaN()
	case 13:
		return math.Inf(1 - 2*r.Intn(2))
	}
	return r.NormFloat64()
}

// pairOperands returns a table of rows x k and two k x n right operands
// of pairValue's elements, with column 0 of the table all zeros and
// row 0 of both right operands NaN and infinities: a product term whose
// alpha is zero meets a NaN or an Inf in every form.
func pairOperands(r *rng.RNG, rows, k, n int) (a, bA, bB *Dense) {
	fill := func(m *Dense) *Dense {
		for i := range m.Data {
			m.Data[i] = pairValue(r)
		}
		return m
	}
	a, bA, bB = fill(New(rows, k)), fill(New(k, n)), fill(New(k, n))
	for i := 0; i < rows; i++ {
		a.Data[i*k] = math.Copysign(0, float64(1-2*(i%2)))
	}
	for j := 0; j < n; j++ {
		bA.Data[j] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[j%3]
		bB.Data[j] = []float64{math.Inf(-1), math.NaN(), math.Inf(1)}[j%3]
	}
	return a, bA, bB
}

// pairLists returns the row lists of an m-row product the pair forms
// are run on, over a table of rows rows: none (the table's own rows,
// m = rows), ascending, in no order, and with repeats.
func pairLists(r *rng.RNG, m, rows int) map[string][]int {
	asc, shuffled, repeats := make([]int, m), make([]int, m), make([]int, m)
	for t := range asc {
		asc[t] = t * rows / m
		repeats[t] = r.Intn(rows)
	}
	for t, i := range r.Perm(m) {
		shuffled[t] = asc[i]
	}
	repeats[m-1] = repeats[0]
	return map[string][]int{"ascending": asc, "unordered": shuffled, "repeats": repeats}
}

// requireBits fails unless got and want hold the same bits, NaN
// payloads included.
func requireBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v (%#016x), single form %v (%#016x)", tag, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestPairFormsMatchGatheredSingleForms: at every kernel level, MulPair
// gives the bits of Mul, and MulATPair those of MulAT, of the gathered
// rows GatherRows(a, at) at each right operand and the same worker
// count, NaN payloads included (a payload tells which kernel a row went
// through: the forms take the single forms' row for row). Rows of 8
// (the fused kernels, and below AVX-512 the single kernels over a
// four-row copy) and of 13 (the gathered fallback); row counts of every residue mod
// 4, one MulAT shard and several; at nil, ascending, in no order and
// with repeats; Workers 1 to 4; NaN, ±Inf, -0 and subnormals in both
// operands, a NaN or an Inf of the right operands opposite a zero of
// a in every product.
func TestPairFormsMatchGatheredSingleForms(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		r := rng.New(47)
		for _, n := range []int{8, 13} {
			for _, m := range []int{1, 6, 67, 133, 301} {
				for _, k := range []int{1, 7, 130} {
					rows := m + 5
					a, bA, bB := pairOperands(r, rows, k, n)
					lists := pairLists(r, m, rows)
					lists["nil"] = nil
					for name, at := range lists {
						src := a
						if at == nil {
							src = FromData(m, k, a.Data[:m*k])
						}
						g := New(m, k)
						GatherRows(g, src, rowsOrAll(at, m))
						// The m x n right operands of the transposed form.
						zA, zB := randMat(r, m, n), randMat(r, m, n)
						zA.Data[0], zB.Data[n-1] = math.NaN(), math.Inf(-1)
						for workers := 1; workers <= 4; workers++ {
							tag := fmt.Sprintf("n=%d m=%d k=%d at=%s workers=%d", n, m, k, name, workers)
							want, got := pairProducts(m, n, k), pairProducts(m, n, k)
							Mul(want[0], g, bA, workers)
							Mul(want[1], g, bB, workers)
							MulAT(want[2], g, zA, workers)
							MulAT(want[3], g, zB, workers)
							MulPair(got[0], got[1], src, at, bA, bB, workers)
							MulATPair(got[2], got[3], src, at, zA, zB, workers)
							for i, form := range []string{"MulPair A", "MulPair B", "MulATPair A", "MulATPair B"} {
								requireBits(t, form+" "+tag, got[i].Data, want[i].Data)
							}
						}
					}
				}
			}
		}
	})
}

// pairProducts returns the two m x n and the two k x n results of a
// pair of forms, filled with NaNs: a form must write every element.
func pairProducts(m, n, k int) [4]*Dense {
	out := [4]*Dense{New(m, n), New(m, n), New(k, n), New(k, n)}
	for _, d := range out {
		d.Fill(math.NaN())
	}
	return out
}

// raceDetector is set in builds with the race detector (race_test.go).
var raceDetector bool

// rowsOrAll returns at, or every row of an m-row matrix for nil.
func rowsOrAll(at []int, m int) []int {
	if at != nil {
		return at
	}
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	return all
}

// TestPairFormsRejectRowsOutsideA: the pair kernels compute addresses
// from the entries of at, so an entry that is negative or not below
// a.Rows panics before anything is read through it or written — at
// every level, at the fused width and the gathered one, as the first
// entry and behind valid ones.
func TestPairFormsRejectRowsOutsideA(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		r := rng.New(53)
		for _, n := range []int{8, 13} {
			a, bA, bB := pairOperands(r, 9, 6, n)
			for _, bad := range []int{-1, 9, 1 << 40, math.MinInt} {
				for _, at := range [][]int{{bad, 0, 1, 2, 3}, {0, 1, 2, 3, bad}} {
					tag := fmt.Sprintf("n=%d at=%v", n, at)
					dA, dB := New(len(at), n), New(len(at), n)
					dA.Fill(7)
					dB.Fill(7)
					mustPanic(t, "MulPair "+tag, func() { MulPair(dA, dB, a, at, bA, bB, 2) })
					gA, gB := New(6, n), New(6, n)
					gA.Fill(7)
					gB.Fill(7)
					zA, zB := New(len(at), n), New(len(at), n)
					mustPanic(t, "MulATPair "+tag, func() { MulATPair(gA, gB, a, at, zA, zB, 2) })
					for _, d := range []*Dense{dA, dB, gA, gB} {
						for i, v := range d.Data {
							if v != 7 {
								t.Fatalf("%s: element %d written (%v) before the panic", tag, i, v)
							}
						}
					}
				}
			}
		}
	})
}

// TestPairFormsReuseScratch: once warm, the pair forms take their
// partials and their copies of a's rows from pools, so a call
// allocates no more than one call of its single form, the closures
// handed perf.Parallel — at every level, at 1 and 2 workers, on a shape
// whose MulAT shards. The race detector's pools drop what is put back
// at random, so under it there is nothing to count.
func TestPairFormsReuseScratch(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	atEveryLevel(t, func(t *testing.T) {
		r := rng.New(59)
		const m, k = 300, 90
		a := randMat(r, m+20, k)
		bA, bB, zA, zB := randMat(r, k, 8), randMat(r, k, 8), randMat(r, m, 8), randMat(r, m, 8)
		at := pairLists(r, m, m+20)["unordered"]
		if mulATShards(m, k, 8) < 2 {
			t.Fatal("shape does not shard; the test would not reach the partials")
		}
		for _, workers := range []int{1, 2} {
			dA, dB, gA, gB := New(m, 8), New(m, 8), New(k, 8), New(k, 8)
			MulPair(dA, dB, a, at, bA, bB, workers)
			MulATPair(gA, gB, a, at, zA, zB, workers)
			own := FromData(m, k, a.Data[:m*k])
			single := testing.AllocsPerRun(20, func() { Mul(dA, own, bA, workers) })
			if avg := testing.AllocsPerRun(20, func() { MulPair(dA, dB, a, at, bA, bB, workers) }); avg > single {
				t.Errorf("MulPair at %d workers allocates %.1f objects per call when warm, Mul %.1f", workers, avg, single)
			}
			single = testing.AllocsPerRun(20, func() { MulAT(gA, own, zA, workers) })
			if avg := testing.AllocsPerRun(20, func() { MulATPair(gA, gB, a, at, zA, zB, workers) }); avg > single {
				t.Errorf("MulATPair at %d workers allocates %.1f objects per call when warm, MulAT %.1f", workers, avg, single)
			}
		}
	})
}

// BenchmarkFirstLayer times the four products of train_prop's first
// layer at its shape — 673 subgraph rows of a 3 494 x 602 feature
// table, 8 wide, one worker — two ways: "gathered", the rows copied
// into a matrix of their own and then two Mul and two MulAT, and
// "pair", MulPair and MulATPair reading the table in place. The two
// alternate within every iteration, their order flipping each time, so
// the host's drift and the cache state one leaves the other fall on
// both alike; each is reported as its own ns/layer metric.
func BenchmarkFirstLayer(b *testing.B) {
	const rows, m, k = 3494, 673, 602
	r := rng.New(3)
	table := randMat(r, rows, k)
	wSelf, wNeigh := randMat(r, k, 8), randMat(r, k, 8)
	dZ, dP := randMat(r, m, 8), randMat(r, m, 8)
	at := make([]int, m)
	for t := range at {
		at[t] = r.Intn(rows)
	}
	h := New(m, k)
	zSelf, p, gSelf, gNeigh := New(m, 8), New(m, 8), New(k, 8), New(k, 8)
	cases := [2]func(){
		func() {
			GatherRowsP(h, table, at, 1)
			Mul(zSelf, h, wSelf, 1)
			Mul(p, h, wNeigh, 1)
			MulAT(gSelf, h, dZ, 1)
			MulAT(gNeigh, h, dP, 1)
		},
		func() {
			MulPair(zSelf, p, table, at, wSelf, wNeigh, 1)
			MulATPair(gSelf, gNeigh, table, at, dZ, dP, 1)
		},
	}
	var spent [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cases {
			c := (i + j) % 2
			start := time.Now()
			cases[c]()
			spent[c] += time.Since(start)
		}
	}
	b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N), "gathered-ns/layer")
	b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N), "pair-ns/layer")
}
