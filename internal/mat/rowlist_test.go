package mat

// Row-list suite: the row-list forms of the three GEMMs (MulList,
// MulATList, MulBTList) against their every-row kernels, by
// Float64bits, and the list kernel under MulATList (axpyRowsAt)
// against its portable loop and against axpyRows, at every kernel
// level. A row-list form computes only the rows it is given; its
// contract is that this is, to the bit, the every-row form on operands
// whose unlisted rows are zeros — a's for Mul and MulBT, b's for MulAT,
// whose a stays finite.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gsgcn/internal/rng"
)

// listValue draws a left operand's element the way a training step
// meets one: half of them zeros of either sign, as a ReLU and dropout
// leave them, a quarter subnormals, the rest ordinary numbers.
func listValue(r *rng.RNG) float64 {
	switch r.Intn(8) {
	case 0, 1:
		return 0
	case 2, 3:
		return math.Copysign(0, -1)
	case 4, 5:
		return math.Float64frombits(r.Uint64()&(1<<52-1)) * float64(1-2*r.Intn(2))
	}
	return r.NormFloat64()
}

// rowLists returns the lists each form is run on over m rows: none,
// every row spelled out, the first and the last, about two thirds
// scattered, runs of 1 to 9 consecutive rows between gaps (the four-row
// and sixteen-row kernels take runs), and the rows within two of each
// of MulAT's shard edges for a k x n product.
func rowLists(r *rng.RNG, m, k, n int) map[string][]int {
	lists := map[string][]int{"empty": {}}
	every, scattered, runs, edges := []int{}, []int{}, []int{}, []int{}
	for i := 0; i < m; i++ {
		every = append(every, i)
		if r.Intn(3) != 0 {
			scattered = append(scattered, i)
		}
	}
	for i := r.Intn(3); i < m; i += 1 + r.Intn(4) {
		for end := min(m, i+1+r.Intn(9)); i < end; i++ {
			runs = append(runs, i)
		}
	}
	shards := mulATShards(m, k, n)
	for i := 0; i < m; i++ {
		for sh := 1; sh < shards; sh++ {
			if e := sh * m / shards; i >= e-2 && i < e+2 {
				edges = append(edges, i)
				break
			}
		}
	}
	lists["every"], lists["scattered"], lists["runs"], lists["shard-edges"] = every, scattered, runs, edges
	lists["ends"] = []int{0, m - 1}
	if m == 1 {
		lists["ends"] = []int{0}
	}
	return lists
}

// zeroUnlisted returns a copy of x with every row that rows does not
// list set to +0.
func zeroUnlisted(x *Dense, rows []int) *Dense {
	z := New(x.Rows, x.Cols)
	for _, i := range rows {
		copy(z.Row(i), x.Row(i))
	}
	return z
}

// TestListFormsMatchZeroedEveryRow: each row-list form, into a
// destination full of garbage, gives the bits of its every-row kernel
// on operands whose unlisted rows are zeroed, for lists that are empty,
// every row, scattered, in runs and around MulAT's shard edges, over
// one shard (40 rows) and many (700), at widths 8 (the four-row
// kernels, accumAT8) and 16 and 121 (the list walks, dot16's groups of
// sixteen and its rest), Workers 1, 2, 3 and 8, at every kernel level;
// aᵀ's 1 and 3 columns leave MulATList fewer output rows than workers,
// and its 37 over 700 rows split among them, past width 8.
func TestListFormsMatchZeroedEveryRow(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		many := false
		for _, m := range []int{1, 5, 40, 700} {
			for _, k := range []int{1, 3, 16, 37} {
				for _, n := range []int{8, 16, 121} {
					r := rng.New(uint64(233 + m + k + n))
					a, b, c, bt := New(m, k), New(k, n), New(m, n), New(n, k)
					for _, x := range []*Dense{a, b, c, bt} {
						for i := range x.Data {
							x.Data[i] = listValue(r)
						}
					}
					many = many || mulATShards(m, k, n) > 1
					for name, rows := range rowLists(r, m, k, n) {
						za, zc := zeroUnlisted(a, rows), zeroUnlisted(c, rows)
						wantMul, wantAT, wantBT := New(m, n), New(k, n), New(m, n)
						Mul(wantMul, za, b, 1)
						MulAT(wantAT, a, zc, 1)
						MulBT(wantBT, za, bt, 1)
						for _, workers := range []int{1, 2, 3, 8} {
							tag := fmt.Sprintf("%dx%dx%d rows %s workers=%d", m, k, n, name, workers)
							got := New(m, n)
							got.Fill(math.NaN())
							MulList(got, a, b, rows, workers)
							requireSameBits(t, "MulList "+tag, got.Data, wantMul.Data)
							got.Fill(math.NaN())
							MulBTList(got, a, bt, rows, workers)
							requireSameBits(t, "MulBTList "+tag, got.Data, wantBT.Data)
							gotAT := New(k, n)
							gotAT.Fill(math.NaN())
							MulATList(gotAT, a, c, rows, workers)
							requireSameBits(t, "MulATList "+tag, gotAT.Data, wantAT.Data)
						}
					}
				}
			}
		}
		if !many {
			t.Fatal("no shape took MulAT's sharded path")
		}
	})
}

// TestListFormsRejectBadLists: a list that is not strictly ascending
// or names a row outside the operand panics before anything is written.
func TestListFormsRejectBadLists(t *testing.T) {
	a, b, c, bt := New(6, 3), New(3, 4), New(6, 4), New(4, 3)
	for name, rows := range map[string][]int{
		"descending": {3, 1}, "repeated": {2, 2}, "negative": {-1, 2}, "past the end": {0, 6},
	} {
		dst := New(6, 4)
		dst.Fill(7)
		mustPanic(t, "MulList "+name, func() { MulList(dst, a, b, rows, 1) })
		mustPanic(t, "MulBTList "+name, func() { MulBTList(dst, a, bt, rows, 1) })
		dw := New(3, 4)
		dw.Fill(7)
		mustPanic(t, "MulATList "+name, func() { MulATList(dw, a, c, rows, 1) })
		for _, x := range [][]float64{dst.Data, dw.Data} {
			for i, v := range x {
				if v != 7 {
					t.Fatalf("%s: element %d written before the list was checked", name, i)
				}
			}
		}
	}
}

// TestAxpyRowsAtMatchesPortable: the indexed list kernel against its
// portable loop — one axpyGo per listed non-zero alpha — for row
// lengths through every panel of both walks, lists of 1 to listMax
// rows in ascending, descending and repeating order, a third of the
// alphas zeros of either sign, every value class; on consecutive rows
// it must also give axpyRows' bits, and a row out of reach must stop it
// with nothing written. At every kernel level.
func TestAxpyRowsAtMatchesPortable(t *testing.T) { atEveryLevel(t, testAxpyRowsAtMatchesPortable) }

func testAxpyRowsAtMatchesPortable(t *testing.T) {
	kern := levelKernels()
	const rowsN, astride, gap = 90, 7, 2
	for _, vc := range valueClasses {
		r := rng.New(211)
		for _, n := range []int{1, 3, 4, 8, 21, 33, 64, 65, 121, 128} {
			stride := n + gap
			src := offsetSlice(r, vc.gen, 1, (rowsN-1)*stride+n)
			alpha := offsetSlice(r, vc.gen, 2, (rowsN-1)*astride+1)
			for i := 0; i < rowsN; i += 3 {
				alpha[i*astride] = math.Copysign(0, float64(1-2*(i%2)))
			}
			base := offsetSlice(r, vc.gen, 3, n)
			run := func(tag string, rows []int, want []float64) {
				t.Helper()
				got := slices.Clone(base)
				if !kern.axpyRowsAt(got, src, stride, alpha, astride, rows, rowsN) {
					t.Fatalf("%s: a row in reach refused", tag)
				}
				if !slices.EqualFunc(got, want, sameBits) {
					requireSameBits(t, tag, got, want)
				}
			}
			for _, count := range []int{1, 2, 5, 31, listMax} {
				asc, desc, rep := make([]int, count), make([]int, count), make([]int, count)
				for i := range asc {
					asc[i] = i * rowsN / count
					desc[count-1-i] = asc[i]
					rep[i] = r.Intn(rowsN)
				}
				for _, l := range []struct {
					name string
					rows []int
				}{{"ascending", asc}, {"descending", desc}, {"repeating", rep}} {
					want := slices.Clone(base)
					axpyRowsAtGo(want, src, stride, alpha, astride, l.rows)
					run(fmt.Sprintf("%s n=%d count=%d %s", vc.name, n, count, l.name), l.rows, want)
				}
				first := r.Intn(rowsN - count + 1)
				consecutive := make([]int, count)
				for i := range consecutive {
					consecutive[i] = first + i
				}
				want := slices.Clone(base)
				axpyRowsGo(want, src[first*stride:], stride, alpha[first*astride:], astride, count)
				run(fmt.Sprintf("%s n=%d count=%d consecutive from %d", vc.name, n, count, first), consecutive, want)
			}
			for _, bad := range []int{rowsN, -1} {
				got := slices.Clone(base)
				if kern.axpyRowsAt(got, src, stride, alpha, astride, []int{0, 1, bad, 2}, rowsN) {
					t.Fatalf("n=%d: row %d of %d accepted", n, bad, rowsN)
				}
				requireSameBits(t, fmt.Sprintf("n=%d refused row %d", n, bad), got, base)
			}
		}
	}
}

// TestAxpyRowsAtRefusesRowsOutOfReach: the entry point panics, before
// anything is written, on a limit past src's or alpha's rows — by one,
// or by a product that overflows — on a row not below the limit or
// negative, on a list longer than listMax and on a negative stride.
func TestAxpyRowsAtRefusesRowsOutOfReach(t *testing.T) {
	for _, n := range []int{1, simdMinLen - 1, simdMinLen, 17, 130} {
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = 1
		}
		src, alpha := make([]float64, 3*n), []float64{1, 1, 1, 1, 1}
		for tag, fn := range map[string]func(){
			"limit past src":      func() { axpyRowsAt(dst, src, n, alpha, 1, []int{0}, 4) },
			"limit past alpha":    func() { axpyRowsAt(dst, src, 0, alpha, 2, []int{1}, 4) },
			"overflowing product": func() { axpyRowsAt(dst, src, math.MaxInt64/2+1, alpha, 0, []int{0}, 3) },
			"row at the limit":    func() { axpyRowsAt(dst, src, n, alpha, 1, []int{0, 2}, 2) },
			"negative row":        func() { axpyRowsAt(dst, src, n, alpha, 1, []int{1, -1}, 3) },
			"no limit":            func() { axpyRowsAt(dst, src, n, alpha, 1, []int{0}, 0) },
			"long list":           func() { axpyRowsAt(dst, src, 0, alpha, 0, make([]int, listMax+1), 1) },
			"negative stride":     func() { axpyRowsAt(dst, src, -1, alpha, 1, []int{0}, 1) },
		} {
			mustPanic(t, fmt.Sprintf("axpyRowsAt %s n=%d", tag, n), fn)
		}
		for i, v := range dst {
			if v != 1 {
				t.Fatalf("n=%d: destination element %d written before the rows were checked", n, i)
			}
		}
	}
}
