//go:build unix

package mat

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float64s whose last byte is the last byte
// of a mapping: the page after it is inaccessible, so reading or
// writing one element past the slice faults instead of landing in
// allocator slack.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	data := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[data-n*8])), n)
}

// TestKernelsStayInsideTheirSlices runs every primitive on operands
// that end on the last bytes of an allocation, at lengths covering
// each loop of the assembly (16-wide body, 4-wide body, scalar tail),
// at every kernel level.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	atEveryLevel(t, testKernelsStayInsideTheirSlices)
}

func testKernelsStayInsideTheirSlices(t *testing.T) {
	k := levelKernels()
	for n := 1; n <= 70; n++ {
		x, y, d := guardedFloats(t, n), guardedFloats(t, n), guardedFloats(t, n)
		rows, out := guardedFloats(t, 4*n), guardedFloats(t, 4)
		for i := range x {
			x[i], y[i], d[i] = float64(i+1), 0.5, 1
		}
		for i := range rows {
			rows[i] = 0.25
		}
		want := float64(n*(n+1)) / 4 // sum of (i+1) * 0.5

		Axpy(d, x, 2)
		AddTo(d, y)
		Scal(d, 2)
		for i, v := range d {
			if v != 2*(1+2*float64(i+1)+0.5) {
				t.Fatalf("n=%d: element %d = %v", n, i, v)
			}
		}
		if got := Dot(x, y); got != want {
			t.Fatalf("n=%d: dot = %v, want %v", n, got, want)
		}
		dot4(out, x, rows, n)
		for j, v := range out {
			if v != want/2 {
				t.Fatalf("n=%d: dot4[%d] = %v, want %v", n, j, v, want/2)
			}
		}
		Relu(d, x)
		ReluGate(d, x, y)
		for i, v := range d {
			if v != 0.5 {
				t.Fatalf("n=%d: element %d = %v after the gate, want 0.5", n, i, v)
			}
		}
		// Below the cut-over the wrappers never reach the level's own
		// routines; these do.
		k.axpy(d, x, 2)
		k.add(d, y)
		k.scale(d, 2)
		dotSink = k.dot(x, y)
		k.dot4(out, x, rows, n)
		k.relu(d, x)
		k.reluGate(d, x, y)
	}
}

// TestPQQueryStaysInsideItsCodebook: a span-2 table whose last centroid
// pair ends on the last bytes of a mapping, as a mapped artifact's
// codebook may, with K a whole number of the kernel's passes and with
// one centroid left for the remainder loop; and the kernel alone on the
// last whole passes before the guard page. At every level.
func TestPQQueryStaysInsideItsCodebook(t *testing.T) {
	atEveryLevel(t, testPQQueryStaysInsideItsCodebook)
}

func testPQQueryStaysInsideItsCodebook(t *testing.T) {
	const dim, m = 6, 3
	for _, k := range []int{4, 5, 256} {
		pt := handPQ(t, 4, dim, m, k)
		cents := guardedFloats(t, len(pt.Centroids))
		copy(cents, pt.Centroids)
		pt.Centroids = cents
		q := dtypeTable(2, dim).Row(1)
		tab := pt.Query(q).(*pqQuery).tab
		requireEntriesMatchDot(t, fmt.Sprintf("K %d", k), pt, q, tab)
		if useAVX2 {
			n := k &^ 3
			last := pt.Centroids[len(pt.Centroids)-2*n:]
			got := guardedFloats(t, n)
			adc2AVX2(got, last, q[4], q[5])
			for c, v := range got {
				if want := Dot(q[4:], last[2*c:2*c+2]); !sameBits(v, want) {
					t.Fatalf("K %d: kernel entry %d = %v, Dot gives %v", k, c, v, want)
				}
			}
		}
	}
}

// TestAxpyRowsStaysInsideItsSlices: the list kernel with its row, the
// last of its source rows and the last of its alphas each ending on the
// last bytes of an allocation — packed, and strided with the final
// alpha and the final row cut off where their strides would run on —
// at every level. Widths run past two AVX-512 panels: each masked rest
// (1..63 elements after the whole panels) ends on the guard page, with
// the lanes its mask turns off lying on it.
func TestAxpyRowsStaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, testAxpyRowsStaysInsideItsSlices)
}

func testAxpyRowsStaysInsideItsSlices(t *testing.T) {
	k := levelKernels()
	for n := 1; n <= 130; n++ {
		for _, count := range []int{1, 3, listMax} {
			for _, lay := range []struct{ astride, gap int }{{1, 0}, {4, 2}} {
				stride := n + lay.gap
				d := guardedFloats(t, n)
				src := guardedFloats(t, (count-1)*stride+n)
				alpha := guardedFloats(t, (count-1)*lay.astride+1)
				for i := range src {
					src[i] = 0.25
				}
				for i := 0; i < count; i++ {
					alpha[i*lay.astride] = float64(i % 3) // a third of the terms are skipped
				}
				want := 0.0
				for i := 0; i < count; i++ {
					want += float64(i%3) * 0.25
				}
				axpyRows(d, src, stride, alpha, lay.astride, count)
				k.axpyRows(d, src, stride, alpha, lay.astride, count)
				want *= 2
				for i, v := range d {
					if v != want {
						t.Fatalf("n=%d count=%d astride=%d: element %d = %v, want %v", n, count, lay.astride, i, v, want)
					}
				}
			}
		}
	}
}

// TestAxpyRows4x8StaysInsideItsSlices: the four-row kernel with its
// rows, the last of its source rows and the last alpha it reads each
// ending on the last bytes of an allocation — alphas a row of a apart,
// the fourth row's cut off where its run ends. At every level.
func TestAxpyRows4x8StaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, testAxpyRows4x8StaysInsideItsSlices)
}

func testAxpyRows4x8StaysInsideItsSlices(t *testing.T) {
	kern := levelKernels()
	for _, count := range []int{1, 3, 5, 64, 70} {
		rs := count + 2
		d := guardedFloats(t, 32)
		src := guardedFloats(t, 8*count)
		alpha := guardedFloats(t, 3*rs+count)
		for i := range src {
			src[i] = 0.25
		}
		var want [4]float64
		for r := range want {
			for i := 0; i < count; i++ {
				alpha[r*rs+i] = float64((i + r) % 3) // a third of the terms are zeros
				want[r] += float64((i+r)%3) * 0.25
			}
		}
		axpyRows4x8(d, src, alpha, rs, count)
		kern.axpyRows4x8(d, src, alpha, rs, count)
		for r := range want {
			want[r] *= 2
		}
		for i, v := range d {
			if v != want[i/8] {
				t.Fatalf("count=%d rs=%d: element %d = %v, want %v", count, rs, i, v, want[i/8])
			}
		}
	}
}

// TestAccumAT8StaysInsideItsSlices: the aᵀ·b kernel on rows of 8 with
// its accumulator, its last row of a and its last row of b each ending
// on the last bytes of an allocation, at widths k of a from one column
// to the first layer's 602, over row counts that end on a pass of four
// rows (where the last row of a is the fourth of a pass) and that leave
// one to three rows over. At every level.
func TestAccumAT8StaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		kern := levelKernels()
		for _, k := range []int{1, 3, 5, 64, 602} {
			for _, count := range []int{4, 5, 6, 7, 8, 67} {
				acc, a, b := guardedFloats(t, 8*k), guardedFloats(t, count*k), guardedFloats(t, 8*count)
				want := make([]float64, k)
				for i := range b {
					b[i] = 0.25
				}
				for row := 0; row < count; row++ {
					for c := 0; c < k; c++ {
						v := float64((row + c) % 3) // a third of a is zeros
						a[row*k+c] = v
						want[c] += v * 0.25
					}
				}
				accumAT8(acc, a, b, k, count)
				kern.accumAT8(acc, a, b, k, count)
				for i, v := range acc {
					if v != 2*want[i/8] {
						t.Fatalf("k=%d count=%d: element %d = %v, want %v", k, count, i, v, 2*want[i/8])
					}
				}
			}
		}
	})
}

// TestGatherSumStaysInsideItsSlices: the gather kernel with its row and
// the last row an index names each ending on the last bytes of an
// allocation — at list lengths that take one kernel call, exactly one
// and more than one — and with the first index that names anything
// further, or anything before the table, stopped in Go: past the guard
// page the assembly would fault, not panic. At every level, at widths
// past two AVX-512 panels.
func TestGatherSumStaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, testGatherSumStaysInsideItsSlices)
}

func testGatherSumStaysInsideItsSlices(t *testing.T) {
	const rows, off = 5, 2
	for n := 1; n <= 130; n++ {
		stride := n + off + 1
		d := guardedFloats(t, n)
		src := guardedFloats(t, (rows-1)*stride+off+n) // the last row is cut off where its columns end
		for i := range src {
			src[i] = 0.25
		}
		for _, count := range []int{1, 3, listMax, listMax + 6} {
			idx := make([]int32, count)
			alpha := guardedFloats(t, count)
			for i := range idx {
				idx[i], alpha[i] = int32(rows-1-i%rows), 2 // the last row first
			}
			for _, w := range [][]float64{nil, alpha} {
				want := 0.25 * float64(count) * 3
				if w != nil {
					want *= 2
				}
				GatherSum(d, src, stride, off, idx, w, 3)
				for i, v := range d {
					if v != want {
						t.Fatalf("n=%d count=%d weighted=%t: element %d = %v, want %v", n, count, w != nil, i, v, want)
					}
				}
				good := idx[count-1]
				for _, bad := range []int32{rows, -1, math.MinInt32, math.MaxInt32} {
					idx[count-1] = bad
					mustPanic(t, fmt.Sprintf("n=%d count=%d index %d", n, count, bad), func() {
						GatherSum(d, src, stride, off, idx, w, 3)
					})
				}
				idx[count-1] = good
				mustPanic(t, fmt.Sprintf("n=%d count=%d: one column further", n, count), func() {
					GatherSum(d, src, stride, off+1, idx, w, 3)
				})
			}
		}
	}
}

// TestMulBTStaysInsideItsSlices: a·bᵀ with a, b and dst each ending on
// the last bytes of an allocation, at every level, with b's row count
// off the sixteen-row groups (m mod 16 = 5, so rows are left for dot4
// and dot) and the inner dimension off the 4-element chunks (k mod 4 =
// 1 and 3, so the tail runs); and at AVX-512 dot16 alone, with its
// packed rows, its last a row and its last output group each ending on
// the guard page.
func TestMulBTStaysInsideItsSlices(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		const rows, m = 3, 37
		for _, k := range []int{1, 4, 13, 67} {
			a, b, dst := guardedFloats(t, rows*k), guardedFloats(t, m*k), guardedFloats(t, rows*m)
			for i := range a {
				a[i] = 0.5
			}
			for i := range b {
				b[i] = 0.25
			}
			want := 0.125 * float64(k)
			MulBT(FromData(rows, m, dst), FromData(rows, k, a), FromData(m, k, b), 1)
			for i, v := range dst {
				if v != want {
					t.Fatalf("k=%d: element %d = %v, want %v", k, i, v, want)
				}
			}
			if !useAVX512 {
				continue
			}
			packed := guardedFloats(t, 16*k)
			packBT16(packed, b, k, 1)
			out := guardedFloats(t, (rows-1)*m+16)
			dot16(out, m, a, k, rows, packed)
			for r := 0; r < rows; r++ {
				for j, v := range out[r*m : r*m+16] {
					if v != want {
						t.Fatalf("k=%d: dot16 row %d result %d = %v, want %v", k, r, j, v, want)
					}
				}
			}
		}
	})
}
