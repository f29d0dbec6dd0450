package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// gatherCSRFuzzBlock decodes a FuzzGatherCSR input into a graph block:
// rows = 1 + vb mod 60 vertices with rows of n = 1 + nb mod 24 columns
// (two YMM registers, four, and past GatherCSRMax to the portable loop),
// each vertex with 0..db mod 40 neighbours drawn from the seed, repeats
// allowed; src and the per-vertex weights are seeded values in (-1, 1),
// and each whole 3-byte record of raw — a little-endian uint16 position
// into src-then-weights, then a byte whose low four bits pick a value
// of hostile and whose bit 4 negates it — overwrites one of them. The
// flags pick weighted (bit 0), mean (bit 1), a row list of about half
// the vertices (bit 2) and a block that leaves out the first and last
// positions (bit 3).
func gatherCSRFuzzBlock(vb, nb, db uint8, seed uint64, raw []byte) (c csrCase, src []float64, n int) {
	rows, maxDeg := 1+int(vb)%60, int(db)%40
	n = 1 + int(nb)%24
	x := seed
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	c.rowPtr = make([]int64, rows+1)
	for v := 0; v < rows; v++ {
		for j := int(next()>>33) % (maxDeg + 1); j > 0; j-- {
			c.col = append(c.col, int32(next()>>33%uint64(rows)))
		}
		c.rowPtr[v+1] = int64(len(c.col))
	}
	vals := make([]float64, rows*n+rows)
	for i := range vals {
		vals[i] = float64(int64(next()>>11))/float64(1<<52) - 1
	}
	for ; len(raw) >= 3; raw = raw[3:] {
		v := hostile[raw[2]&15]
		if raw[2]&16 != 0 {
			v = -v
		}
		vals[int(binary.LittleEndian.Uint16(raw))%len(vals)] = v
	}
	c.w = vals[rows*n:]
	return c, vals[:rows*n], n
}

// FuzzGatherCSR holds the block kernel under propagation on narrow rows
// to one GatherSum per vertex, at every kernel level the host has, on
// hostile numbers: the bits of each row, NaN payloads included, against
// GatherSum's at the same level, and NaNs by class against the portable
// reference. Rows the block does not name keep their poison. Its seed
// corpus (testdata/fuzz/FuzzGatherCSR) has rows of 8 and 16 — the
// widths training propagates — under both norms with NaN, ±Inf, -0 and
// subnormals, row lists and inner blocks, and widths 1, 5, 12 and 20.
func FuzzGatherCSR(f *testing.F) {
	f.Fuzz(func(t *testing.T, vb, nb, db, flags uint8, seed uint64, raw []byte) {
		c, src, n := gatherCSRFuzzBlock(vb, nb, db, seed, raw)
		rows := len(c.rowPtr) - 1
		weighted, mean := flags&1 != 0, flags&2 != 0
		var verts []int
		lo, hi := 0, rows
		if flags&4 != 0 {
			for v := 0; v < rows; v++ {
				if seed>>(v%64)&1 != 0 {
					verts = append(verts, v)
				}
			}
			hi = len(verts)
		}
		if flags&8 != 0 && hi-lo > 2 {
			lo, hi = lo+1, hi-1
		}
		var w []float64
		if weighted {
			w = c.w
		}
		tag := fmt.Sprintf("rows=%d n=%d weighted=%t mean=%t list=%t block=[%d,%d)", rows, n, weighted, mean, verts != nil, lo, hi)
		poisoned := func() []float64 {
			d := make([]float64, rows*n)
			for i := range d {
				d[i] = math.Inf(-1)
			}
			return d
		}
		ref := poisoned()
		c.perVertex(ref, 0, src, n, verts, lo, hi, weighted, mean, gatherSumRef)
		for lvl := levelGo; lvl <= hostLevel(); lvl++ {
			forceLevel(t, lvl)
			got, want := poisoned(), poisoned()
			GatherCSR(got, 0, src, n, c.rowPtr, c.col, verts, lo, hi, w, mean)
			c.perVertex(want, 0, src, n, verts, lo, hi, weighted, mean, GatherSum)
			requireSameFloat64bits(t, tag+" at "+levelNames[lvl], got, want)
			requireSameBits(t, tag+" at "+levelNames[lvl]+" against the portable reference", got, ref)
		}
	})
}
