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
