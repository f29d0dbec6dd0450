package mat

import (
	"fmt"

	"gsgcn/internal/perf"
)

// This file is the serving memory plane's dtype substrate: the two
// lossy representations (float32 and int8 product quantization) the
// ANN hot path can score rows from instead of the full-precision
// table. Exactness is preserved by construction: quantized tables
// only ever generate candidates — every reported score is recomputed
// from the float64 rows of a Dense table (on the heap or a view of a
// mapped artifact), so answers in exact mode are bit-identical across
// dtypes.

// Dtype names a resident representation of an embedding table.
type Dtype uint8

const (
	// DtypeF64 is the full-precision table: exact scans and exact
	// rerank read it; it is the zero value so untouched Options keep
	// their pre-dtype behavior.
	DtypeF64 Dtype = iota
	// DtypeF32 halves the table ANN searches score from; exact answers
	// still read float64 rows.
	DtypeF32
	// DtypeI8PQ is int8 product quantization: ~1 byte per subspace
	// per row plus a small codebook, scored via asymmetric distance
	// tables.
	DtypeI8PQ
)

// String returns the wire name used by flags, /healthz and metrics.
func (d Dtype) String() string {
	switch d {
	case DtypeF64:
		return "f64"
	case DtypeF32:
		return "f32"
	case DtypeI8PQ:
		return "i8pq"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// ParseDtype parses a wire name ("f64", "f32", "i8pq"); the empty
// string means f64 so callers can treat an unset flag as the default.
func ParseDtype(s string) (Dtype, error) {
	switch s {
	case "", "f64":
		return DtypeF64, nil
	case "f32":
		return DtypeF32, nil
	case "i8pq":
		return DtypeI8PQ, nil
	}
	return DtypeF64, fmt.Errorf("mat: unknown dtype %q (want f64, f32 or i8pq)", s)
}

// NumRows returns the row count.
func (m *Dense) NumRows() int { return m.Rows }

// NumCols returns the column count.
func (m *Dense) NumCols() int { return m.Cols }

// Quantized is a lossy, compact row representation that can score
// rows against a query by approximate inner product. Implementations
// are immutable after construction, so any number of queries may be
// prepared and scored concurrently.
type Quantized interface {
	Dtype() Dtype
	NumRows() int
	NumCols() int
	// ResidentBytes is the size of the working set an ANN search
	// scores from (codes plus codebooks) — the number the serving layer
	// exports as its memory-plane gauge.
	ResidentBytes() int64
	// Query prepares per-query state (a converted vector or an
	// asymmetric distance table) amortized across all row scores, in
	// s's buffers (a fresh scratch when s is nil). The query it returns
	// reads s and is valid until the next Query through s.
	Query(q []float64, s *QueryScratch) QuantQuery
}

// QueryScratch is the storage a prepared query lives in: the ADC table
// of a PQTable query or the converted vector of an F32Table one. A
// buffer that is short is grown; one that is long enough is reused as
// it is, so Query clears or wholly overwrites every element it reads.
// A caller that keeps a scratch and passes it to every Query allocates
// nothing per query once the buffers have grown to the table. One
// scratch serves one query at a time. The zero value is ready to use.
type QueryScratch struct {
	tab []float64
	q32 []float32
	pq  pqQuery
	f32 f32Query
}

// grow returns a slice of n elements backed by *buf, replacing *buf
// when its capacity is short. The elements keep whatever they held.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// QuantQuery is prepared per-query scoring state. ScoreRows writes the
// approximate dot(query, row ids[i]) into out[i] — a graph walk passes
// the neighbours it is about to visit, a flat scan consecutive ids. A
// row's bits never depend on the ids it was batched with. It is safe
// to call concurrently.
type QuantQuery interface {
	ScoreRows(ids []int32, out []float64)
}

// F32Table is an embedding table rounded to float32: half the bytes
// of the source, scored with float32 arithmetic.
type F32Table struct {
	RowsN, ColsN int
	Data         []float32
}

// ToF32 rounds src to float32 row by row. The conversion is a pure
// elementwise rounding, so it is deterministic at any worker count.
func ToF32(src *Dense, workers int) *F32Table {
	rows, cols := src.NumRows(), src.NumCols()
	t := &F32Table{RowsN: rows, ColsN: cols, Data: make([]float32, rows*cols)}
	perf.ParallelMin(rows, copyRowGrain, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := src.Row(i)
			out := t.Data[i*cols : (i+1)*cols]
			for j, v := range row {
				out[j] = float32(v)
			}
		}
	})
	return t
}

// Dtype returns DtypeF32.
func (t *F32Table) Dtype() Dtype { return DtypeF32 }

// NumRows returns the row count.
func (t *F32Table) NumRows() int { return t.RowsN }

// NumCols returns the column count.
func (t *F32Table) NumCols() int { return t.ColsN }

// ResidentBytes returns the table size in bytes.
func (t *F32Table) ResidentBytes() int64 { return int64(len(t.Data)) * 4 }

// Query converts the query's first ColsN elements once into s (it
// panics here if q is shorter), overwriting every element it will
// read; scoring is then a float32 dot per row.
func (t *F32Table) Query(q []float64, s *QueryScratch) QuantQuery {
	if s == nil {
		s = new(QueryScratch)
	}
	q32 := grow(&s.q32, t.ColsN)
	for j := range q32 {
		q32[j] = float32(q[j])
	}
	s.f32 = f32Query{t: t, q: q32}
	return &s.f32
}

type f32Query struct {
	t *F32Table
	q []float32
}

// ScoreRows scores four rows per pass over the query. A row's score is
// one chain of dependent float32 adds — each waits for the one before
// — so one row at a time runs at the adder's latency; four rows are
// four independent chains in flight. Every row still has its own
// accumulator taking its products in column order, so its bits do not
// depend on which pass, beside which rows, or whether the one-row
// remainder loop scored it.
func (s *f32Query) ScoreRows(ids []int32, out []float64) {
	cols, q, data := s.t.ColsN, s.q, s.t.Data
	row := func(id int32) []float32 { return data[int(id)*cols:][:cols] }
	for ; len(ids) >= 4; ids, out = ids[4:], out[4:] {
		r0, r1, r2, r3 := row(ids[0]), row(ids[1]), row(ids[2]), row(ids[3])
		var a0, a1, a2, a3 float32
		for j, v := range q {
			a0 += v * r0[j]
			a1 += v * r1[j]
			a2 += v * r2[j]
			a3 += v * r3[j]
		}
		out[0], out[1], out[2], out[3] = float64(a0), float64(a1), float64(a2), float64(a3)
	}
	for i, id := range ids {
		r := row(id)
		var acc float32
		for j, v := range q {
			acc += v * r[j]
		}
		out[i] = float64(acc)
	}
}

// PQParams fixes a product-quantization configuration. Two trainings
// over the same table with equal params produce identical codebooks
// and codes — the property that lets a server adopt index-time
// codebooks from an artifact, or recompute them and get the same
// bytes.
type PQParams struct {
	// M is the subspace count; subspace s covers columns
	// [s*dim/M, (s+1)*dim/M).
	M int
	// K is the number of centroids per subspace (<= 256 so a code
	// fits one byte).
	K int
	// Iters is the fixed Lloyd iteration count.
	Iters int
	// Seed feeds centroid initialization.
	Seed uint64
}

// pqDefaultSeed seeds codebook training everywhere a caller does not
// choose one, so index-time and serve-time trainings agree.
const pqDefaultSeed = 0x9E3779B97F4A7C15

// ResolvePQ returns the default configuration for a table shape:
// ~2 columns per subspace (fine enough to keep the ef-wide candidate
// beam recall-safe on clustered embedding tables) and a centroid
// budget that keeps the codebook small relative to the rows it
// summarizes.
func ResolvePQ(rows, dim int) PQParams {
	m := (dim + 1) / 2
	if m < 1 {
		m = 1
	}
	k := rows / 8
	if k < 2 {
		k = 2
	}
	if k > 256 {
		k = 256
	}
	if k > rows && rows > 0 {
		k = rows
	}
	return PQParams{M: m, K: k, Iters: 8, Seed: pqDefaultSeed}
}

// PQTable is a product-quantized embedding table: one byte per
// subspace per row plus an M*K codebook of float64 centroids, each as
// wide as its subspace's span.
type PQTable struct {
	RowsN, ColsN int
	Params       PQParams
	// Centroids is packed per subspace: for subspace s with span
	// width w_s, centroid c occupies Centroids[off_s + c*w_s : ...],
	// where off_s = K * (w_0 + ... + w_{s-1}).
	Centroids []float64
	// Codes[r*M+s] is row r's centroid id in subspace s.
	Codes []uint8
}

// subSpan returns the column range of subspace s for width dim split
// into m even spans.
func subSpan(dim, m, s int) (lo, hi int) {
	return s * dim / m, (s + 1) * dim / m
}

// PQCentroidsLen returns the packed centroid slice length for a
// configuration — the one sizing rule, the artifact codec's included.
// The M spans partition the dim columns, so the K centroids of every
// subspace together hold K*dim elements whatever M (>= 1) is; subspace
// s's block starts where the blocks before it end, which the loops
// that walk the codebook keep as a running offset.
func PQCentroidsLen(dim, m, k int) int { return k * dim }

// splitmix64 is the stateless seed expander used for deterministic
// centroid initialization.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TrainPQ runs seeded Lloyd k-means independently per subspace and
// encodes every row. Determinism: centroid init is a pure function of
// (Seed, rows, K); assignment is row-owned (parallel workers write
// disjoint code ranges); centroid accumulation walks rows serially in
// id order; distance ties break toward the lower centroid id; empty
// clusters keep their previous centroid. The result is bit-identical
// at any worker count.
func TrainPQ(src *Dense, p PQParams, workers int) *PQTable {
	rows, dim := src.NumRows(), src.NumCols()
	if p.M < 1 || p.M > dim || p.K < 1 || p.K > 256 || p.K > rows || p.Iters < 0 {
		panic(fmt.Sprintf("mat: invalid PQ params M=%d K=%d iters=%d for %dx%d table", p.M, p.K, p.Iters, rows, dim))
	}
	t := &PQTable{
		RowsN:     rows,
		ColsN:     dim,
		Params:    p,
		Centroids: make([]float64, PQCentroidsLen(dim, p.M, p.K)),
		Codes:     make([]uint8, rows*p.M),
	}
	off := 0
	for s := 0; s < p.M; s++ {
		lo, hi := subSpan(dim, p.M, s)
		w := hi - lo
		cents := t.Centroids[off : off+p.K*w]
		off += p.K * w
		// Stratified init jittered by the seed: centroid c starts at a
		// distinct row, spread across the table.
		for c := 0; c < p.K; c++ {
			stride := rows / p.K
			jitter := 0
			if stride > 1 {
				jitter = int(splitmix64(p.Seed+uint64(s)*977+uint64(c)) % uint64(stride))
			}
			r := c*stride + jitter
			if r >= rows {
				r = rows - 1
			}
			copy(cents[c*w:(c+1)*w], src.Row(r)[lo:hi])
		}
		assign := make([]uint8, rows)
		for it := 0; it <= p.Iters; it++ {
			// Assign each row's subvector to the nearest centroid
			// (squared L2, ties to the lower id). Row-owned, so the
			// parallel decomposition cannot affect the result.
			perf.ParallelMin(rows, copyRowGrain, workers, func(_, rlo, rhi int) {
				for r := rlo; r < rhi; r++ {
					sub := src.Row(r)[lo:hi]
					best, bestD := 0, pqDist(sub, cents[:w])
					for c := 1; c < p.K; c++ {
						if d := pqDist(sub, cents[c*w:(c+1)*w]); d < bestD {
							best, bestD = c, d
						}
					}
					assign[r] = uint8(best)
				}
			})
			if it == p.Iters {
				break
			}
			// Recompute means serially in row order; empty clusters
			// keep their previous centroid.
			sums := make([]float64, p.K*w)
			counts := make([]int, p.K)
			for r := 0; r < rows; r++ {
				c := int(assign[r])
				counts[c]++
				acc := sums[c*w : (c+1)*w]
				for j, v := range src.Row(r)[lo:hi] {
					acc[j] += v
				}
			}
			for c := 0; c < p.K; c++ {
				if counts[c] == 0 {
					continue
				}
				inv := 1 / float64(counts[c])
				for j := 0; j < w; j++ {
					cents[c*w+j] = sums[c*w+j] * inv
				}
			}
		}
		for r := 0; r < rows; r++ {
			t.Codes[r*p.M+s] = assign[r]
		}
	}
	return t
}

// pqDist is squared L2 between a subvector and a centroid.
func pqDist(x, c []float64) float64 {
	d := 0.0
	for j, v := range x {
		e := v - c[j]
		d += e * e
	}
	return d
}

// Validate checks structural consistency (shape, code range) — the
// artifact decoder's guard against corrupt sections.
func (t *PQTable) Validate() error {
	p := t.Params
	if t.RowsN < 0 || t.ColsN < 1 {
		return fmt.Errorf("mat: pq table shape %dx%d", t.RowsN, t.ColsN)
	}
	if p.M < 1 || p.M > t.ColsN {
		return fmt.Errorf("mat: pq M=%d out of range for dim %d", p.M, t.ColsN)
	}
	if p.K < 1 || p.K > 256 {
		return fmt.Errorf("mat: pq K=%d out of range", p.K)
	}
	if want := PQCentroidsLen(t.ColsN, p.M, p.K); len(t.Centroids) != want {
		return fmt.Errorf("mat: pq centroids len %d, want %d", len(t.Centroids), want)
	}
	if want := t.RowsN * p.M; len(t.Codes) != want {
		return fmt.Errorf("mat: pq codes len %d, want %d", len(t.Codes), want)
	}
	for _, c := range t.Codes {
		if int(c) >= p.K {
			return fmt.Errorf("mat: pq code %d >= K=%d", c, p.K)
		}
	}
	return nil
}

// Dtype returns DtypeI8PQ.
func (t *PQTable) Dtype() Dtype { return DtypeI8PQ }

// NumRows returns the row count.
func (t *PQTable) NumRows() int { return t.RowsN }

// NumCols returns the column count.
func (t *PQTable) NumCols() int { return t.ColsN }

// ResidentBytes returns codes plus codebook size in bytes.
func (t *PQTable) ResidentBytes() int64 {
	return int64(len(t.Codes)) + int64(len(t.Centroids))*8
}

// Query builds the asymmetric distance table in s: tab[sub*K+c] =
// dot(query_sub, centroid_{sub,c}), so a row scores in M table lookups.
// It is one pass over the packed codebook, read where it lies (a
// mapped codebook is never copied), M*K entries each with the bits of
// Dot(query_sub, centroid). A span of 2 — every span at ResolvePQ's
// default M but one span of 1 at an odd width — goes to adc2AVX2 where
// AVX2 is present: four centroids a pass, each entry (+0 + q0*c0) +
// q1*c1 as dotGo sums it, written without being read. What the kernel
// leaves (the last K mod 4 entries), spans of 1 and 3, and every short
// span without AVX2 are summed in place as dotGo sums them — the row
// is cleared to +0 first (a reused table holds the last query's
// entries), then each entry takes a rounded product then a rounded add
// per element in order, so a lone -0 product still gives +0 — one
// query element across all of the row's remaining centroids at a time:
// independent sums in flight and no call per two-element dot. A wider
// span goes through dot4, four centroids a pass, and dot for the last
// K mod 4, both of which write their entries. It panics, before
// anything is scored, if q is shorter than the table is wide.
//
// Past its M*K entries the table holds 256-K entries of +0, cleared on
// every build (none at the serving K of 256): subspace s's entries are
// read at s*K plus a code byte, so every byte a code can hold — a code
// of K or more too, in a table Validate never saw or a mapped file
// changed under it — reads inside the table, at every level. The pad
// costs 2 KB a scratch at most; checking each code against K instead
// would cost a compare in the scorer's innermost loop.
func (t *PQTable) Query(q []float64, s *QueryScratch) QuantQuery {
	m, k := t.Params.M, t.Params.K
	q = q[:t.ColsN:len(q)]
	if s == nil {
		s = new(QueryScratch)
	}
	tab := grow(&s.tab, m*k+max(0, 256-k))
	clear(tab[m*k:])
	off := 0
	for sub := 0; sub < m; sub++ {
		lo, hi := subSpan(t.ColsN, m, sub)
		w := hi - lo
		qs, cents, row := q[lo:hi], t.Centroids[off:off+k*w], tab[sub*k:(sub+1)*k]
		off += k * w
		if w < simdMinLen {
			if w == 2 && useAVX2 {
				n := k &^ 3
				adc2AVX2(row[:n], cents[:2*n], qs[0], qs[1])
				row, cents = row[n:], cents[2*n:]
			}
			clear(row)
			for j, x := range qs {
				for c := range row {
					row[c] += x * cents[c*w+j]
				}
			}
			continue
		}
		c := 0
		for ; c+4 <= k; c += 4 {
			dot4(row[c:], qs, cents[c*w:], w)
		}
		for ; c < k; c++ {
			row[c] = dot(qs, cents[c*w:(c+1)*w])
		}
	}
	s.pq = pqQuery{t: t, tab: tab}
	return &s.pq
}

type pqQuery struct {
	t   *PQTable
	tab []float64
}

// ScoreRows gives each row one accumulator, started from +0 and taking
// its M entries in subspace order: a chain of M dependent adds. Rows
// are independent chains, so where AVX2 is present pqRowsAVX2 keeps up
// to eight of them in flight — each eight rows of a call in one 8-chain
// pass, then 5 to 7 left in another, 3 or 4 in a 4-chain pass and 1 or
// 2 in a 2-chain pass, the short lanes filled by repeating the last id
// and their scores dropped — and the Go loop, the reference and the
// path below AVX2, four a pass and the rest one at a time. A call of
// one row takes the Go loop at every level: one chain either way, and
// the padded pass measured slower. Which pass scores a row, and
// beside which rows, never reaches its bits. Every id is checked
// against the rows the table holds before any row is read; a code byte
// of K or more reads the padded table (Query).
func (s *pqQuery) ScoreRows(ids []int32, out []float64) {
	m, k, tab, codes := s.t.Params.M, s.t.Params.K, s.tab, s.t.Codes
	out = out[:len(ids)]
	rows := min(s.t.RowsN, len(codes)/max(m, 1))
	for _, id := range ids {
		if uint(id) >= uint(rows) {
			panic(fmt.Sprintf("mat: pq row %d outside a table of %d rows", id, rows))
		}
	}
	if useAVX2 && len(ids) > 1 {
		for len(ids) > 0 {
			n := min(len(ids), 8)
			switch n {
			case 2, 4, 8:
				pqRowsAVX2(&out[0], &ids[0], codes, tab, m, k, n)
			default:
				w := 8 // 5 to 7 rows
				if n < 4 {
					w = n + 1 // 1 or 3 rows
				}
				var lane [8]int32
				var res [8]float64
				copy(lane[:], ids[:n])
				for i := n; i < w; i++ {
					lane[i] = ids[n-1]
				}
				pqRowsAVX2(&res[0], &lane[0], codes, tab, m, k, w)
				copy(out, res[:n])
			}
			ids, out = ids[n:], out[n:]
		}
		return
	}
	row := func(id int32) []uint8 { return codes[int(id)*m:][:m] }
	for ; len(ids) >= 4; ids, out = ids[4:], out[4:] {
		c0, c1, c2, c3 := row(ids[0]), row(ids[1]), row(ids[2]), row(ids[3])
		var a0, a1, a2, a3 float64
		for sub, c := range c0 {
			t := tab[sub*k:]
			a0 += t[c]
			a1 += t[c1[sub]]
			a2 += t[c2[sub]]
			a3 += t[c3[sub]]
		}
		out[0], out[1], out[2], out[3] = a0, a1, a2, a3
	}
	for i, id := range ids {
		acc := 0.0
		for sub, c := range row(id) {
			acc += tab[sub*k+int(c)]
		}
		out[i] = acc
	}
}
