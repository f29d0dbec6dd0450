package mat

import (
	"fmt"
	"sync"

	"gsgcn/internal/perf"
)

// The pair forms compute the two products a layer forms from one input,
// H·W_self and H·W_neigh forward and Hᵀ·dZ_self and Hᵀ·dP backward, in
// one pass over H, and read H's rows through an index list: a sampled
// subgraph's first layer takes its rows straight out of the feature
// table, which no longer has to be gathered into a matrix of the
// subgraph's own first. Each block of the shared operand is used for
// both products while it is in the cache (Goto & van de Geijn's
// principle), where two single products stream it twice.
//
// On rows of 8, the width whose products are cheap enough for that
// traffic to be their cost, four rows of a go through one kernel per
// pass — the fused AVX-512 ones, or below that level the single forms'
// kernels over a four-row copy — with every row and every element
// taking the terms, in the order, the single forms give it. Other
// widths run the single forms over a gathered copy of a. So a pair
// form's results have, to the bit, the single forms' over the gathered
// rows at every kernel level and worker count.

// MulPair computes dstA = a[at]·bA and dstB = a[at]·bB, where a[at] is
// the matrix whose row t is row at[t] of a (a itself when at is nil):
// the bits of Mul(dstA, g, bA) and Mul(dstB, g, bB) for g =
// GatherRows(a, at), in one pass over the rows of a. at may list rows
// in any order and more than once. It panics, before reading a, if an
// entry of at is negative or not below a.Rows.
func MulPair(dstA, dstB, a *Dense, at []int, bA, bB *Dense, workers int) {
	m := pairRows(a, at, "MulPair")
	if a.Cols != bA.Rows || a.Cols != bB.Rows || dstA.Rows != m || dstA.Cols != bA.Cols ||
		dstB.Rows != m || dstB.Cols != bB.Cols {
		panic(fmt.Sprintf("mat: MulPair shape mismatch (%dx%d)*(%dx%d, %dx%d)->(%dx%d, %dx%d)",
			m, a.Cols, bA.Rows, bA.Cols, bB.Rows, bB.Cols, dstA.Rows, dstA.Cols, dstB.Rows, dstB.Cols))
	}
	if bA.Cols != 8 || bB.Cols != 8 {
		g, buf := gathered(a, at, workers)
		if buf != nil {
			defer pairScratch.Put(buf)
		}
		Mul(dstA, g, bA, workers)
		Mul(dstB, g, bB, workers)
		return
	}
	k := a.Cols
	quads, buf := quadScratch(4*k, workers)
	if buf != nil {
		defer pairScratch.Put(buf)
	}
	perf.Parallel(m, workers, func(w, lo, hi int) {
		clear(dstA.Data[lo*8 : hi*8])
		clear(dstB.Data[lo*8 : hi*8])
		quad := quadOf(quads, w, 4*k)
		tile := listRows(8, k)
		for t := lo; t < hi; {
			if t+4 <= hi {
				offs := [4]int{rowAt(at, t) * k, rowAt(at, t+1) * k, rowAt(at, t+2) * k, rowAt(at, t+3) * k}
				axpyRows4x8Pair(dstA.Data[t*8:], dstB.Data[t*8:], bA.Data, bB.Data, a.Data, &offs, k, quad)
				t += 4
				continue
			}
			arow := a.Row(rowAt(at, t))
			for k0 := 0; k0 < k; k0 += tile {
				k1 := min(k0+tile, k)
				axpyRows(dstA.Data[t*8:t*8+8], bA.Data[k0*8:k1*8], 8, arow[k0:k1], 1, k1-k0)
				axpyRows(dstB.Data[t*8:t*8+8], bB.Data[k0*8:k1*8], 8, arow[k0:k1], 1, k1-k0)
			}
			t++
		}
	})
}

// MulATPair computes dstA = a[at]ᵀ·bA and dstB = a[at]ᵀ·bB (a[at] as
// in MulPair): the bits of MulAT(dstA, g, bA) and MulAT(dstB, g, bB)
// for g = GatherRows(a, at), in one pass over the rows of a. Each
// product is cut into the shards its MulAT would use, mulATShards of
// the len(at) rows at its own width, and each of its elements takes its
// terms in ascending position of at. It panics, before reading a, if an
// entry of at is negative or not below a.Rows.
//
// On rows of 8 it is MulAT's one parallel region over blocks of the k
// output rows, each block taking both products' terms shard by shard:
// shard 0 straight into dstA and dstB, each later one through its rows
// of two k x 8 partials from a pool, added in shard order.
func MulATPair(dstA, dstB, a *Dense, at []int, bA, bB *Dense, workers int) {
	m := pairRows(a, at, "MulATPair")
	k := a.Cols
	if bA.Rows != m || bB.Rows != m || dstA.Rows != k || dstA.Cols != bA.Cols ||
		dstB.Rows != k || dstB.Cols != bB.Cols {
		panic("mat: MulATPair shape mismatch")
	}
	if bA.Cols != 8 || bB.Cols != 8 {
		g, buf := gathered(a, at, workers)
		if buf != nil {
			defer pairScratch.Put(buf)
		}
		MulAT(dstA, g, bA, workers)
		MulAT(dstB, g, bB, workers)
		return
	}
	shards := mulATShards(m, k, 8)
	quads, buf := quadScratch(4*k, workers)
	if buf != nil {
		defer pairScratch.Put(buf)
	}
	var partials []float64
	if shards > 1 {
		pbuf := scratchOf(&mulATScratch, 2*k*8)
		defer mulATScratch.Put(pbuf)
		partials = (*pbuf)[:2*k*8]
	}
	// A block is written twice per shard, once per product.
	perf.ParallelMin(k, elemGrain/(2*8*shards), workers, func(w, c0, c1 int) {
		dA, dB := dstA.Data[c0*8:c1*8], dstB.Data[c0*8:c1*8]
		clear(dA)
		clear(dB)
		quad := quadOf(quads, w, 4*k)
		for sh := 0; sh < shards; sh++ {
			lo, hi := sh*m/shards, (sh+1)*m/shards
			if sh == 0 {
				accumATPair8(dA, dB, a, at, bA, bB, lo, hi, c0, c1, quad)
				continue
			}
			pA, pB := partials[c0*8:c1*8], partials[(k+c0)*8:(k+c1)*8]
			clear(pA)
			clear(pB)
			accumATPair8(pA, pB, a, at, bA, bB, lo, hi, c0, c1, quad)
			AddTo(dA, pA)
			AddTo(dB, pB)
		}
	})
}

// accumATPair8 is accumATRange on rows of 8 for both products of
// MulATPair: it adds into accA and accB (rows [c0, c1) of the two k x 8
// products) the terms of positions [lo, hi) of at, in that order —
// four rows of a a pass through accumAT8Pair, the rest one at a time
// through accumAT8. Both start from +0, as accumAT8 requires.
func accumATPair8(accA, accB []float64, a *Dense, at []int, bA, bB *Dense, lo, hi, c0, c1 int, quad []float64) {
	k := a.Cols
	for t := lo; t < hi; {
		if t+4 <= hi {
			offs := [4]int{rowAt(at, t)*k + c0, rowAt(at, t+1)*k + c0, rowAt(at, t+2)*k + c0, rowAt(at, t+3)*k + c0}
			accumAT8Pair(accA, accB, a.Data, &offs, bA.Data[t*8:(t+4)*8], bB.Data[t*8:(t+4)*8], c1-c0, quad)
			t += 4
			continue
		}
		r := rowAt(at, t)
		accumAT8(accA, a.Data[r*k+c0:], bA.Data[t*8:t*8+8], c1-c0, k, 1)
		accumAT8(accB, a.Data[r*k+c0:], bB.Data[t*8:t*8+8], c1-c0, k, 1)
		t++
	}
}

// pairRows returns the number of rows of a[at] after checking every
// entry of at against a.Rows: the kernels compute addresses from them.
func pairRows(a *Dense, at []int, op string) int {
	if at == nil {
		return a.Rows
	}
	for _, r := range at {
		if uint(r) >= uint(a.Rows) {
			panic(fmt.Sprintf("mat: %s row %d is not a row of a %d-row matrix", op, r, a.Rows))
		}
	}
	return len(at)
}

// rowAt returns the row of a that position t of at names.
func rowAt(at []int, t int) int {
	if at == nil {
		return t
	}
	return at[t]
}

// pairScratch recycles the pair forms' copies of a's rows, as
// mulATScratch recycles MulAT's partial: a buffer belongs to one call
// from Get to Put, and every part of it is written before it is read.
var pairScratch sync.Pool

// gathered returns a[at] as a matrix: a itself when at is nil, else a
// copy in a buffer from pairScratch, which the caller puts back.
func gathered(a *Dense, at []int, workers int) (*Dense, *[]float64) {
	if at == nil {
		return a, nil
	}
	buf := scratchOf(&pairScratch, len(at)*a.Cols)
	g := FromData(len(at), a.Cols, (*buf)[:len(at)*a.Cols])
	GatherRowsP(g, a, at, workers)
	return g, buf
}

// quadScratch returns room for a four-row copy of a's rows, quad floats,
// for each of workers chunks: what the rows-of-8 pair kernels copy four
// rows of a into below the AVX-512 level. At that level they read a in
// place, and it returns none.
func quadScratch(quad, workers int) ([]float64, *[]float64) {
	if useAVX512 {
		return nil, nil
	}
	n := quad * max(1, workers)
	buf := scratchOf(&pairScratch, n)
	return (*buf)[:n], buf
}

// quadOf returns chunk w's part of quadScratch's room: none where there
// is none.
func quadOf(quads []float64, w, quad int) []float64 {
	if quads == nil {
		return nil
	}
	return quads[w*quad : (w+1)*quad]
}
