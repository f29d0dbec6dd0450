package mat

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/rng"
)

// GatherCSR is held to GatherSum row by row: the block kernel must give
// each vertex's row the bits one GatherSum call over its adjacency list
// gives it at the same level, NaN payloads included, and the portable
// reference's bits (NaNs by class) at every level.

// csrCase is a random graph block: rows vertices, a fifth of them
// without neighbours, every adjacency list in the order it was drawn,
// repeats allowed, and for each vertex the weight of its row.
type csrCase struct {
	rowPtr []int64
	col    []int32
	w      []float64
}

func randomCSR(r *rng.RNG, rows, maxDeg int, gen func(*rng.RNG) float64) csrCase {
	c := csrCase{rowPtr: make([]int64, rows+1), w: make([]float64, rows)}
	for v := 0; v < rows; v++ {
		deg := 0
		if v%5 != 0 {
			deg = 1 + r.Intn(maxDeg)
		}
		for j := 0; j < deg; j++ {
			c.col = append(c.col, int32(r.Intn(rows)))
		}
		c.rowPtr[v+1] = int64(len(c.col))
		c.w[v] = gen(r)
	}
	return c
}

// perVertex is the block computed the way propagation computed it
// before the block kernel: one GatherSum (or the portable reference)
// per vertex, with the vertex's weights gathered into a list.
func (c csrCase) perVertex(dst []float64, base int, src []float64, n int, verts []int, lo, hi int, weighted, mean bool,
	gather func(dst, src []float64, stride, off int, idx []int32, alpha []float64, scale float64)) {
	var alpha []float64
	for t := lo; t < hi; t++ {
		v := t
		if verts != nil {
			v = verts[t]
		}
		nb := c.col[c.rowPtr[v]:c.rowPtr[v+1]]
		alpha = alpha[:0]
		if weighted {
			for _, u := range nb {
				alpha = append(alpha, c.w[u])
			}
		}
		scale := 1.0
		if mean && len(nb) > 0 {
			scale = 1 / float64(len(nb))
		}
		gather(dst[(v-base)*n:(v-base)*n+n], src, n, 0, nb, alpha, scale)
	}
}

func requireSameFloat64bits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: %v (%#016x) != %v (%#016x)", tag, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGatherCSRMatchesGatherSum runs at every level: widths 1 to 20
// (two YMM registers, four, the masks of every width, and past the
// kernel's limit), whole blocks, blocks that start and end inside the
// graph with dst holding just their rows, and row lists that skip
// vertices; weighted and not, mean and not; ordinary, signed-zero,
// subnormal, overflowing and NaN/Inf values in the rows and the
// weights. Rows the block does not name must keep their poison.
func TestGatherCSRMatchesGatherSum(t *testing.T) {
	atEveryLevel(t, testGatherCSRMatchesGatherSum)
}

func testGatherCSRMatchesGatherSum(t *testing.T) {
	const rows = 41
	for _, vc := range valueClasses {
		r := rng.New(317)
		for n := 1; n <= GatherCSRMax+4; n++ {
			c := randomCSR(r, rows, 30, vc.gen)
			src := offsetSlice(r, vc.gen, n%3, rows*n)
			var list []int
			for v := 0; v < rows; v++ {
				if r.Intn(3) != 0 {
					list = append(list, v)
				}
			}
			blocks := []struct {
				name                  string
				verts                 []int
				lo, hi, base, dstRows int
			}{
				{"whole", nil, 0, rows, 0, rows},
				{"inner", nil, 3, rows - 4, 3, rows - 7},
				{"list", list, 0, len(list), 0, rows},
				{"list-part", list, 2, len(list) - 1, 0, rows},
			}
			for _, b := range blocks {
				for _, weighted := range []bool{false, true} {
					for _, mean := range []bool{false, true} {
						tag := fmt.Sprintf("%s n=%d %s weighted=%t mean=%t", vc.name, n, b.name, weighted, mean)
						got, want, ref := make([]float64, b.dstRows*n), make([]float64, b.dstRows*n), make([]float64, b.dstRows*n)
						for i := range got {
							got[i], want[i], ref[i] = math.NaN(), math.NaN(), math.NaN()
						}
						var w []float64
						if weighted {
							w = c.w
						}
						GatherCSR(got, b.base, src, n, c.rowPtr, c.col, b.verts, b.lo, b.hi, w, mean)
						c.perVertex(want, b.base, src, n, b.verts, b.lo, b.hi, weighted, mean, GatherSum)
						c.perVertex(ref, b.base, src, n, b.verts, b.lo, b.hi, weighted, mean, gatherSumRef)
						requireSameFloat64bits(t, tag, got, want)
						requireSameBits(t, "portable reference: "+tag, got, ref)
					}
				}
			}
		}
	}
}

// TestGatherCSRStartsFromPositiveZero: a vertex whose neighbours hold
// -0 aggregates to +0, weighted or not, and a vertex with no
// neighbours to +0 whatever its row of dst held.
func TestGatherCSRStartsFromPositiveZero(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for n := 1; n <= GatherCSRMax+1; n++ {
			src := make([]float64, 2*n)
			for i := range src {
				src[i] = negZero
			}
			rowPtr, col := []int64{0, 2, 2}, []int32{1, 0}
			for _, w := range [][]float64{nil, {1, 1}} {
				for _, mean := range []bool{false, true} {
					got := make([]float64, 2*n)
					for i := range got {
						got[i] = -7
					}
					GatherCSR(got, 0, src, n, rowPtr, col, nil, 0, 2, w, mean)
					requireSameFloat64bits(t, fmt.Sprintf("n=%d weighted=%t mean=%t", n, w != nil, mean), got, make([]float64, 2*n))
				}
			}
		}
	})
}

// TestGatherCSRRejectsBlocksOutsideItsSlices: every way a block can
// name memory outside its operands panics, before dst is written.
func TestGatherCSRRejectsBlocksOutsideItsSlices(t *testing.T) {
	const n = 4
	rowPtr := []int64{0, 2, 3, 3}
	col := []int32{1, 2, 0}
	src := make([]float64, 3*n)
	w := []float64{1, 2, 3}
	cases := map[string]func(dst []float64){
		"vertex past rowPtr":        func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, []int{0, 3}, 0, 2, nil, true) },
		"negative vertex":           func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, []int{-1}, 0, 1, nil, true) },
		"range past rowPtr":         func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, nil, 1, 4, nil, true) },
		"negative start":            func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, nil, -1, 2, nil, true) },
		"list shorter than the end": func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, []int{0}, 0, 2, nil, true) },
		"row below dst":             func(d []float64) { GatherCSR(d, 1, src, n, rowPtr, col, nil, 0, 2, nil, true) },
		"listed row below dst":      func(d []float64) { GatherCSR(d, 1, src, n, rowPtr, col, []int{0}, 0, 1, nil, true) },
		"row past dst":              func(d []float64) { GatherCSR(d[:2*n], 0, src, n, rowPtr, col, nil, 0, 3, nil, true) },
		"neighbour past src": func(d []float64) {
			GatherCSR(d, 0, src[:2*n], n, rowPtr, col, nil, 0, 3, nil, true)
		},
		"neighbour past w": func(d []float64) { GatherCSR(d, 0, src, n, rowPtr, col, nil, 0, 3, w[:2], false) },
		"negative neighbour": func(d []float64) {
			GatherCSR(d, 0, src, n, rowPtr, []int32{1, -1, 0}, nil, 0, 3, nil, true)
		},
		"list past col": func(d []float64) {
			GatherCSR(d, 0, src, n, []int64{0, 2, 4, 4}, col, nil, 0, 3, nil, true)
		},
		"listed list past col": func(d []float64) {
			GatherCSR(d, 0, src, n, []int64{0, 2, 4, 4}, col, []int{1}, 0, 1, nil, true)
		},
		"list ends before it starts": func(d []float64) {
			GatherCSR(d, 0, src, n, []int64{0, 2, 1, 3}, col, nil, 0, 3, nil, true)
		},
		"listed list ends before it starts": func(d []float64) {
			GatherCSR(d, 0, src, n, []int64{0, 2, 1, 3}, col, []int{1}, 0, 1, nil, true)
		},
	}
	atEveryLevel(t, func(t *testing.T) {
		for name, fn := range cases {
			dst := make([]float64, 3*n)
			for i := range dst {
				dst[i] = 5
			}
			mustPanic(t, name, func() { fn(dst) })
			for i, v := range dst {
				if v != 5 {
					t.Fatalf("%s: element %d of dst written before the panic", name, i)
				}
			}
		}
	})
}
