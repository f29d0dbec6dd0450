package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// pqFuzzTable decodes a FuzzPQQuery input into a table and a query:
// K = 1 + k mod 300 centroids over dim = 2 + d mod 63 columns, split at
// ResolvePQ's default M = (dim+1)/2 — every span 2 but, at an odd dim,
// one span of 1. The query and then the codebook are seeded values in
// (-1, 1); each whole 10-byte record of raw — a little-endian uint16
// position into that query-then-codebook sequence, then the
// little-endian bits of a float64 — overwrites one of them, so NaN,
// ±Inf, subnormals and -0 can sit anywhere.
func pqFuzzTable(k, d uint16, seed uint64, raw []byte) (*PQTable, []float64) {
	kk, dim := 1+int(k)%300, 2+int(d)%63
	vals := make([]float64, dim+kk*dim)
	x := seed
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		vals[i] = float64(int64(x>>11))/float64(1<<52) - 1
	}
	for ; len(raw) >= 10; raw = raw[10:] {
		pos := int(binary.LittleEndian.Uint16(raw)) % len(vals)
		vals[pos] = math.Float64frombits(binary.LittleEndian.Uint64(raw[2:]))
	}
	pt := &PQTable{ColsN: dim, Params: PQParams{M: (dim + 1) / 2, K: kk}, Centroids: vals[dim:]}
	return pt, vals[:dim]
}

// hostile are the values a FuzzNarrowRows record can place: zero, NaN,
// an infinity, subnormals, the edges of the normal range, magnitudes
// whose products overflow or underflow, and a few ordinary numbers.
var hostile = [16]float64{
	0, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64,
	0x1p-1022, math.MaxFloat64, 1e300, 1e-300,
	1e154, 1e-154, 0x1p-1060, 1,
	0.5, 3, 0.1, 1.0 / 3,
}

// narrowFuzzMats decodes a FuzzNarrowRows input into a (m x k) and
// b (k x n): m = 1 + mb mod 160, k = 1 + kb mod 140 and n = 1 + nb mod
// 200, so that row counts take every residue mod 4, k reaches past the
// 64-row tile and, as aᵀ's row count, past MulAT's first shard, and n
// crosses every panel width of the list walks (AVX2's 32/16/8/4/1,
// AVX-512's 64 and its masked rest) and, as bᵀ's row count, dot16's
// sixteen-row groups. Every element is a seeded value in (-1, 1); an
// element of a is a zero instead (of either sign) with probability
// zeros/256. Each whole 3-byte record of raw — a little-endian uint16
// position into a-then-b, then a byte whose low four bits pick a value
// of hostile and whose bit 4 negates it — overwrites one element.
func narrowFuzzMats(mb, kb, nb, zeros uint8, seed uint64, raw []byte) (a, b *Dense) {
	m, k, n := 1+int(mb)%160, 1+int(kb)%140, 1+int(nb)%200
	vals := make([]float64, m*k+k*n)
	x := seed
	for i := range vals {
		x = x*6364136223846793005 + 1442695040888963407
		vals[i] = float64(int64(x>>11))/float64(1<<52) - 1
		if i < m*k && uint8(x>>3) < zeros {
			vals[i] = math.Copysign(0, float64(int64(x)))
		}
	}
	for ; len(raw) >= 3; raw = raw[3:] {
		v := hostile[raw[2]&15]
		if raw[2]&16 != 0 {
			v = -v
		}
		vals[int(binary.LittleEndian.Uint16(raw))%len(vals)] = v
	}
	return FromData(m, k, vals[:m*k]), FromData(k, n, vals[m*k:])
}

// FuzzNarrowRows holds the three GEMM forms, at the kernel level of the
// host, to the untiled portable references on hostile numbers: Mul(a, b)
// to refMul, MulAT(aᵀ, b), the same product formed as a weight
// gradient, to refMulAT, and MulBT(a, bᵀ), the same product formed from
// inner products, to refMulBT, NaNs by class. It is named for the rows
// it began with, 8 wide — the width whose rows go four at a time
// through one kernel that masks zero alphas instead of skipping them —
// and now takes rows of 1 to 200. Its seed corpus
// (testdata/fuzz/FuzzNarrowRows) has m = 1..9 at width 8 against NaN,
// ±Inf, -0 and subnormals in both operands, and the same values at
// widths 63, 64, 65, 121, 128 and 129, where the list walks' panels
// end and the AVX-512 walk masks its rest. The n8-m*-k65..k140 seeds
// are for MulAT on rows of 8: k of every residue mod 4, one shard and
// two, with ±Inf and NaN in rows of b whose alphas in a are zeros.
func FuzzNarrowRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, mb, kb, nb, zeros uint8, seed uint64, raw []byte) {
		a, b := narrowFuzzMats(mb, kb, nb, zeros, seed, raw)
		tag := fmt.Sprintf("%dx%dx%d", a.Rows, a.Cols, b.Cols)
		got := New(a.Rows, b.Cols)
		Mul(got, a, b, 1)
		requireSameBits(t, "Mul "+tag, got.Data, refMul(a, b).Data)
		at := Transpose(a)
		MulAT(got, at, b, 1)
		requireSameBits(t, "MulAT "+tag, got.Data, refMulAT(at, b).Data)
		bt := Transpose(b)
		MulBT(got, a, bt, 1)
		requireSameBits(t, "MulBT "+tag, got.Data, refMulBT(a, bt).Data)
	})
}

// FuzzPQQuery holds the ADC table to Dot on hostile numbers: every
// entry of a span-2 table (FuzzPQQuery's inputs, pqFuzzTable's
// decoding), whatever K leaves for the remainder loop, has the bits of
// Dot(query_s, centroid), NaNs by class. Its seed corpus
// (testdata/fuzz/FuzzPQQuery) is TestPQQueryEntriesMatchDot's cases at
// this shape: its Ks at dims 2, 6, 9 and 64, with centroid 0 of
// subspace 0 all zeros against a negative query and centroid 1 holding
// the special values.
func FuzzPQQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, k, d uint16, seed uint64, raw []byte) {
		pt, q := pqFuzzTable(k, d, seed, raw)
		tab := pt.Query(q).(*pqQuery).tab
		requireEntriesMatchDot(t, fmt.Sprintf("K %d dim %d", pt.Params.K, pt.ColsN), pt, q, tab)
	})
}
