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
//
// Each input also draws a row list from its seed (fuzzRows) and holds
// the row-list forms to the every-row ones: MulList and MulBTList give
// the listed rows the every-row bits and the others +0, and MulATList
// the bits of MulAT with the unlisted rows of both operands zeroed —
// of aᵀ too, because a hostile value there times a zero of b is a NaN
// the list form never forms. MulAT and MulATList run at 1 to 4
// workers, picked by the seed's low bits: how their output rows are
// split among the workers must not reach a bit.
//
// The pair forms are held to the single forms over the gathered rows,
// bit for bit, NaN payloads included, at the same workers: MulPair
// reads a's rows through a list the seed draws (fuzzAt: in no order,
// with repeats) and MulATPair aᵀ's, each against b and b with its rows
// reversed, so that the hostile values of b meet other terms in the
// second product. The pair-* seeds are for them: rows of 8 (the fused
// kernels) with one MulAT shard and several, and rows of 13 (the
// gathered fallback).
func FuzzNarrowRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, mb, kb, nb, zeros uint8, seed uint64, raw []byte) {
		a, b := narrowFuzzMats(mb, kb, nb, zeros, seed, raw)
		tag := fmt.Sprintf("%dx%dx%d", a.Rows, a.Cols, b.Cols)
		got := New(a.Rows, b.Cols)
		Mul(got, a, b, 1)
		requireSameBits(t, "Mul "+tag, got.Data, refMul(a, b).Data)
		rows := fuzzRows(seed, a.Rows)
		list := New(a.Rows, b.Cols)
		MulList(list, a, b, rows, 1)
		requireSameBits(t, "MulList "+tag, list.Data, zeroUnlisted(got, rows).Data)
		at := Transpose(a)
		workers := 1 + int(seed%4)
		MulAT(got, at, b, workers)
		requireSameBits(t, fmt.Sprintf("MulAT %s workers=%d", tag, workers), got.Data, refMulAT(at, b).Data)
		rowsK := fuzzRows(seed>>1, at.Rows)
		MulAT(got, zeroUnlisted(at, rowsK), zeroUnlisted(b, rowsK), workers)
		MulATList(list, at, b, rowsK, workers)
		requireSameBits(t, fmt.Sprintf("MulATList %s workers=%d", tag, workers), list.Data, got.Data)
		bt := Transpose(b)
		MulBT(got, a, bt, 1)
		requireSameBits(t, "MulBT "+tag, got.Data, refMulBT(a, bt).Data)
		MulBTList(list, a, bt, rows, 1)
		requireSameBits(t, "MulBTList "+tag, list.Data, zeroUnlisted(got, rows).Data)

		br := New(b.Rows, b.Cols)
		for i := 0; i < b.Rows; i++ {
			copy(br.Row(i), b.Row(b.Rows-1-i))
		}
		wantA, wantB, gotA, gotB := New(a.Rows, b.Cols), New(a.Rows, b.Cols), New(a.Rows, b.Cols), New(a.Rows, b.Cols)
		in := fuzzAt(seed, a.Rows)
		g := New(len(in), a.Cols)
		GatherRows(g, a, in)
		Mul(wantA, g, b, workers)
		Mul(wantB, g, br, workers)
		MulPair(gotA, gotB, a, in, b, br, workers)
		ptag := fmt.Sprintf("%s workers=%d", tag, workers)
		requireBits(t, "MulPair (b) "+ptag, gotA.Data, wantA.Data)
		requireBits(t, "MulPair (b reversed) "+ptag, gotB.Data, wantB.Data)
		in = fuzzAt(seed, at.Rows)
		g = New(len(in), at.Cols)
		GatherRows(g, at, in)
		MulAT(wantA, g, b, workers)
		MulAT(wantB, g, br, workers)
		MulATPair(gotA, gotB, at, in, b, br, workers)
		requireBits(t, "MulATPair (b) "+ptag, gotA.Data, wantA.Data)
		requireBits(t, "MulATPair (b reversed) "+ptag, gotB.Data, wantB.Data)
	})
}

// fuzzAt draws the row list of a pair form over m rows from a fuzz
// input's seed: m entries, each a row below m, in no order and with
// repeats.
func fuzzAt(seed uint64, m int) []int {
	at := make([]int, m)
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range at {
		x = x*6364136223846793005 + 1442695040888963407
		at[i] = int(x>>33) % m
	}
	return at
}

// fuzzRows draws a row list over m rows from a fuzz input's seed: each
// row is listed or not by one bit of a stream of its own, so a seed
// of 0 lists none and the lists of other seeds run from one row to all.
func fuzzRows(seed uint64, m int) []int {
	rows := []int{}
	x := seed
	for i := 0; i < m; i++ {
		x = x*2862933555777941757 + 3037000493
		if seed != 0 && x>>62 != 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// FuzzPQQuery holds the ADC table to Dot on hostile numbers: every
// entry of a span-2 table (FuzzPQQuery's inputs, pqFuzzTable's
// decoding), whatever K leaves for the remainder loop, has the bits of
// Dot(query_s, centroid), NaNs by class. Each table is then built a
// second time through the same scratch, NaN-filled in between, and
// must come out with the first build's bits in the same buffer: reuse
// never reaches an entry. Last, a batch of rows drawn from raw
// (pqFuzzBatch) is scored through ScoreRows at every kernel level the
// host has, each row with the Go loop's bits (pqScoreRef), NaNs by
// class. Its seed corpus (testdata/fuzz/FuzzPQQuery) is
// TestPQQueryEntriesMatchDot's cases at this shape: its Ks at dims 2,
// 6, 9 and 64, with centroid 0 of subspace 0 all zeros against a
// negative query and centroid 1 holding the special values; the
// reuse-* seeds add K at 1, 2 and 3 mod 4 over even dims and an odd
// dim, whose span of 1 is summed in place; the score-* seeds batches
// of 1, 2, 3, 4, 5, 8 and 9 rows at K below 256, each pass of the
// kernel with and without padded lanes, some over NaN and infinite
// centroids.
func FuzzPQQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, k, d uint16, seed uint64, raw []byte) {
		pt, q := pqFuzzTable(k, d, seed, raw)
		tag := fmt.Sprintf("K %d dim %d", pt.Params.K, pt.ColsN)
		var s QueryScratch
		tab := pt.Query(q, &s).(*pqQuery).tab
		requireEntriesMatchDot(t, tag, pt, q, tab)
		first := append([]float64(nil), tab...)
		for i := range tab {
			tab[i] = math.NaN()
		}
		again := pt.Query(q, &s).(*pqQuery).tab
		if &again[0] != &tab[0] {
			t.Fatalf("%s: the second build did not reuse the scratch's table", tag)
		}
		requireSameBits(t, tag+" rebuilt over a poisoned table", again, first)

		ids := pqFuzzBatch(pt, k, seed, raw)
		out := make([]float64, len(ids))
		for lvl := levelGo; lvl <= hostLevel(); lvl++ {
			forceLevel(t, lvl)
			qq := pt.Query(q, &s)
			qq.ScoreRows(ids, out)
			for i, r := range ids {
				if want := pqScoreRef(pt, qq.(*pqQuery).tab, int(r)); !sameBits(out[i], want) {
					t.Fatalf("%s at %s: batch %v slot %d = %v, the Go loop gives %v", tag, levelNames[lvl], ids, i, out[i], want)
				}
			}
		}
	})
}

// pqFuzzBatch gives pt rows to score and returns a batch of them, drawn
// from a FuzzPQQuery input: n = 1 + (k/300) mod 16 ids — k's low part
// picks K — over a table of n+1 rows. Code j is raw's byte j, cycled
// (the seed's bytes when raw is empty), plus j, mod K; id i is the
// cycled byte at 7i mod the row count, so ids repeat; the last id is
// the table's last row.
func pqFuzzBatch(pt *PQTable, k uint16, seed uint64, raw []byte) []int32 {
	src := raw
	if len(src) == 0 {
		src = binary.LittleEndian.AppendUint64(nil, seed)
	}
	n, m := 1+int(k/300)%16, pt.Params.M
	pt.RowsN, pt.Codes = n+1, make([]uint8, (n+1)*m)
	for j := range pt.Codes {
		pt.Codes[j] = uint8((int(src[j%len(src)]) + j) % pt.Params.K)
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(int(src[7*i%len(src)]) % pt.RowsN)
	}
	ids[n-1] = int32(pt.RowsN - 1)
	return ids
}

// FuzzExpLog1p holds Exp and Log1p to math.Exp and math.Log1p on
// arbitrary float64 bit patterns, at every kernel level the host has:
// raw is read as little-endian float64s (a trailing 1 to 7 bytes are
// dropped) and both run over them as one vector, so a length of each
// residue mod 4 reaches the masked last group; every element must have
// the scalar call's bits, NaN payloads included. Its seed corpus
// (testdata/fuzz/FuzzExpLog1p) puts each branch boundary, with its
// neighbours, among ordinary values: log1p's 2^-54 and 2^-29, √2−1 and
// √2/2−1, and 1 (1+x a power of two); exp's overflow bound near
// 709.78, the normal-result edge near -708.4 and the scale's at
// -1022.5·ln 2, the underflow to 0 near -745.13, and the rounding
// edges of its k = round(x·log2e).
func FuzzExpLog1p(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got := make([]float64, len(src))
		for lvl := levelGo; lvl <= hostLevel(); lvl++ {
			forceLevel(t, lvl)
			for _, fn := range elementwise {
				fn.run(got, src)
				requireScalarBits(t, fmt.Sprintf("%s at %s", fn.name, levelNames[lvl]), fn.ref, got, src)
			}
		}
	})
}
