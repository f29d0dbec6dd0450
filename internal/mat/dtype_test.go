package mat

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// dtypeTable builds a seeded deterministic table in (-1, 1).
func dtypeTable(rows, cols int) *Dense {
	m := New(rows, cols)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range m.Data {
		x = x*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(int64(x>>11))/float64(1<<52) - 1
	}
	return m
}

func TestDtypeNames(t *testing.T) {
	cases := []struct {
		d    Dtype
		name string
	}{{DtypeF64, "f64"}, {DtypeF32, "f32"}, {DtypeI8PQ, "i8pq"}}
	for _, c := range cases {
		if c.d.String() != c.name {
			t.Errorf("String(%d) = %q, want %q", c.d, c.d.String(), c.name)
		}
		got, err := ParseDtype(c.name)
		if err != nil || got != c.d {
			t.Errorf("ParseDtype(%q) = %v, %v", c.name, got, err)
		}
	}
	if got, err := ParseDtype(""); err != nil || got != DtypeF64 {
		t.Errorf("empty dtype should default to f64, got %v, %v", got, err)
	}
	if _, err := ParseDtype("f16"); err == nil {
		t.Error("unknown dtype accepted")
	}
}

// TestToF32DeviationBound pins the f32 conversion's accuracy contract:
// each element deviates from the source by at most one float32 ulp of
// relative error — the bound the exactness harness relies on when it
// argues f32 ANN scans stay close enough to feed the exact rerank.
func TestToF32DeviationBound(t *testing.T) {
	src := dtypeTable(200, 17)
	ft := ToF32(src, 3)
	if ft.NumRows() != 200 || ft.NumCols() != 17 || ft.Dtype() != DtypeF32 {
		t.Fatalf("shape/dtype: %dx%d %v", ft.NumRows(), ft.NumCols(), ft.Dtype())
	}
	const relUlp = 1.0 / (1 << 23)
	for i, v := range src.Data {
		got := float64(ft.Data[i])
		if math.Abs(got-v) > math.Abs(v)*relUlp {
			t.Fatalf("element %d: f32 %v deviates from %v beyond one ulp", i, got, v)
		}
	}
	if got, want := ft.ResidentBytes(), int64(200*17*4); got != want {
		t.Errorf("ResidentBytes = %d, want %d", got, want)
	}
}

// TestToF32WorkerInvariance: the conversion is elementwise, so any
// worker count produces the same bytes.
func TestToF32WorkerInvariance(t *testing.T) {
	src := dtypeTable(333, 9)
	ref := ToF32(src, 1)
	for _, w := range []int{2, 5, 16} {
		got := ToF32(src, w)
		for i := range ref.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
				t.Fatalf("workers=%d: element %d differs", w, i)
			}
		}
	}
}

// TestResolvePQShapes checks that the default configuration is always
// trainable: every resolved parameter set passes TrainPQ's own
// validation for the shape it was resolved for.
func TestResolvePQShapes(t *testing.T) {
	shapes := [][2]int{{1, 1}, {2, 3}, {10, 4}, {100, 16}, {295, 12}, {3000, 64}, {100000, 128}}
	for _, sh := range shapes {
		rows, dim := sh[0], sh[1]
		p := ResolvePQ(rows, dim)
		if p.M < 1 || p.M > dim {
			t.Errorf("shape %v: M=%d out of [1,%d]", sh, p.M, dim)
		}
		if p.K < 1 || p.K > 256 || p.K > rows {
			t.Errorf("shape %v: K=%d out of range", sh, p.K)
		}
		if p.Seed == 0 || p.Iters < 1 {
			t.Errorf("shape %v: degenerate params %+v", sh, p)
		}
	}
}

// TestTrainPQWorkerInvariance is the codebook determinism contract:
// training at any worker count yields bit-identical centroids and
// codes — the property that lets a server adopt index-time codebooks
// or retrain and get the same bytes.
func TestTrainPQWorkerInvariance(t *testing.T) {
	src := dtypeTable(400, 13)
	p := ResolvePQ(400, 13)
	ref := TrainPQ(src, p, 1)
	if err := ref.Validate(); err != nil {
		t.Fatalf("trained table invalid: %v", err)
	}
	for _, w := range []int{2, 3, 8} {
		got := TrainPQ(src, p, w)
		for i := range ref.Centroids {
			if math.Float64bits(got.Centroids[i]) != math.Float64bits(ref.Centroids[i]) {
				t.Fatalf("workers=%d: centroid element %d differs", w, i)
			}
		}
		for i := range ref.Codes {
			if got.Codes[i] != ref.Codes[i] {
				t.Fatalf("workers=%d: code %d differs", w, i)
			}
		}
	}
	if got, want := ref.ResidentBytes(), int64(len(ref.Codes))+int64(len(ref.Centroids))*8; got != want {
		t.Errorf("ResidentBytes = %d, want %d", got, want)
	}
}

// TestPQQueryMatchesReconstruction: the ADC table path must score each
// row exactly as dot(query, reconstructed row) — M per-subspace
// centroid dots, accumulated in subspace order.
func TestPQQueryMatchesReconstruction(t *testing.T) {
	src := dtypeTable(120, 10)
	p := ResolvePQ(120, 10)
	pt := TrainPQ(src, p, 2)
	q := src.Row(7)
	out := make([]float64, 120)
	pt.Query(q, nil).ScoreRows(idRange(0, 120), out)
	for r := 0; r < 120; r++ {
		acc, off := 0.0, 0
		for s := 0; s < p.M; s++ {
			lo, hi := subSpan(10, p.M, s)
			w := hi - lo
			c := int(pt.Codes[r*p.M+s])
			cent := pt.Centroids[off+c*w:]
			off += p.K * w
			acc += dot(q[lo:hi], cent[:w])
		}
		if math.Float64bits(out[r]) != math.Float64bits(acc) {
			t.Fatalf("row %d: ADC score %v, reconstruction %v", r, out[r], acc)
		}
	}
}

// TestPQValidateRejectsCorruption drives Validate with the damage the
// artifact decoder must catch after a structurally valid parse.
func TestPQValidateRejectsCorruption(t *testing.T) {
	src := dtypeTable(64, 8)
	fresh := func() *PQTable { return TrainPQ(src, ResolvePQ(64, 8), 1) }

	pt := fresh()
	pt.Codes[5] = uint8(pt.Params.K) // one past the last centroid
	if err := pt.Validate(); err == nil {
		t.Error("out-of-range code accepted")
	}
	pt = fresh()
	pt.Centroids = pt.Centroids[:len(pt.Centroids)-1]
	if err := pt.Validate(); err == nil {
		t.Error("truncated codebook accepted")
	}
	pt = fresh()
	pt.Codes = pt.Codes[:len(pt.Codes)-1]
	if err := pt.Validate(); err == nil {
		t.Error("truncated codes accepted")
	}
	pt = fresh()
	pt.Params.M = 99
	if err := pt.Validate(); err == nil {
		t.Error("M beyond dim accepted")
	}
}

// handPQ builds a structurally valid PQ table without training: seeded
// centroids in (-1, 1) and seeded codes below K.
func handPQ(t *testing.T, rows, dim, m, k int) *PQTable {
	t.Helper()
	pt := &PQTable{
		RowsN: rows, ColsN: dim, Params: PQParams{M: m, K: k},
		Centroids: dtypeTable(k, dim).Data,
		Codes:     make([]uint8, rows*m),
	}
	x := uint64(dim*131 + m*17 + k)
	for i := range pt.Codes {
		x = splitmix64(x)
		pt.Codes[i] = uint8(x % uint64(k))
	}
	if err := pt.Validate(); err != nil {
		t.Fatalf("handPQ(%d,%d,%d,%d): %v", rows, dim, m, k, err)
	}
	return pt
}

// idRange returns the consecutive row ids [lo, hi) — a flat scan's
// argument to ScoreRows.
func idRange(lo, hi int) []int32 {
	ids := make([]int32, hi-lo)
	for i := range ids {
		ids[i] = int32(lo + i)
	}
	return ids
}

// checkScoreRows drives ScoreRows against ref(r), the test's own
// one-row score, two ways. As a flat scan: consecutive ids over every
// lo mod 4 x length 0..9 and one long range. As a walk's gather: every
// probed row alone (the remainder loop's first slot), in each of the
// four slots of a four-row pass beside companions from all over the
// table — themselves checked — and in each slot of the remainder
// after a full pass, beside a repeated id. The slot after the
// ids must keep its sentinel.
func checkScoreRows(t *testing.T, name string, rows int, qq QuantQuery, ref func(r int) float64) {
	t.Helper()
	batches := [][]int32{idRange(1, rows)}
	for lo := 0; lo < 4; lo++ {
		for n := 0; n <= 9; n++ {
			batches = append(batches, idRange(lo, lo+n))
		}
	}
	for _, r := range []int32{0, 1, 5, 6, int32(rows / 2), int32(rows - 1)} {
		far := func(i int) int32 { return int32((int(r)*7 + i*389 + 3) % rows) }
		batches = append(batches, []int32{r})
		for slot := 0; slot < 4; slot++ {
			four := []int32{far(0), far(1), far(2), far(3)}
			four[slot] = r
			batches = append(batches, four)
		}
		for slot := 0; slot < 3; slot++ {
			tail := []int32{far(4), far(5), far(6), far(7), far(8), far(8), far(8)}
			tail[4+slot] = r
			batches = append(batches, tail)
		}
	}
	const sentinel = -12345.5
	for _, ids := range batches {
		out := make([]float64, len(ids)+1)
		out[len(ids)] = sentinel
		qq.ScoreRows(ids, out[:len(ids)])
		for i, r := range ids {
			if want := ref(int(r)); !sameBits(out[i], want) {
				t.Fatalf("%s ScoreRows(%v) row %d: %v (%#x), want %v (%#x)", name, ids, r,
					out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
		if out[len(ids)] != sentinel {
			t.Fatalf("%s ScoreRows(%v) wrote past its ids", name, ids)
		}
	}
}

// TestPQScoresMatchPerRow: whichever pass scores a row — at every
// level, in any slot beside any companions, or the Go loop's remainder
// — its score is the one-chain sum of its M table entries in subspace
// order, to the bit: alone, in a group of four and in the remainder
// alike.
// Shapes: spans of 2 (the serving shape), spans of 5 and 6 (entries
// from the SIMD dot), uneven splits 2/2/3 and 2-then-3, one span.
func TestPQScoresMatchPerRow(t *testing.T) { atEveryLevel(t, testPQScoresMatchPerRow) }

func testPQScoresMatchPerRow(t *testing.T) {
	const rows = 1031
	for _, sh := range [][2]int{{256, 128}, {22, 4}, {7, 3}, {257, 128}, {5, 2}, {3, 1}} { // dim, M
		dim, m := sh[0], sh[1]
		for _, k := range []int{2, 255, 256} {
			pt := handPQ(t, rows, dim, m, k)
			q := dtypeTable(3, dim).Row(2)
			qq := pt.Query(q, nil)
			tab := qq.(*pqQuery).tab
			checkScoreRows(t, "pq", rows, qq, func(r int) float64 {
				acc := 0.0
				for s := 0; s < m; s++ {
					acc += tab[s*k+int(pt.Codes[r*m+s])]
				}
				return acc
			})
		}
	}
}

// pqScoreRef is the Go loop's score of row r of pt against its ADC
// table tab, written out: one chain from +0 over the row's M entries in
// subspace order, each read at s*K plus the code.
func pqScoreRef(pt *PQTable, tab []float64, r int) float64 {
	m, k := pt.Params.M, pt.Params.K
	acc := 0.0
	for s := 0; s < m; s++ {
		acc += tab[s*k+int(pt.Codes[r*m+s])]
	}
	return acc
}

// TestPQScoreRowsEveryBatchLength: at every kernel level, ScoreRows
// gives each row its one-chain sum's bits (pqScoreRef) in batches of
// every length from 1 to 40 — the 2-, 4- and 8-chain passes with and
// without padded lanes, and several passes a call — for K of 2, 3, 255
// and 256, at an even dim (spans of 2) and an odd one (one span of 1),
// with an id repeated inside each batch and the table's last row last.
// The output is NaN before the call, and the slot after the batch must
// keep its sentinel.
func TestPQScoreRowsEveryBatchLength(t *testing.T) {
	atEveryLevel(t, func(t *testing.T) {
		const rows, sentinel = 61, -12345.5
		for _, dim := range []int{256, 9} {
			m := (dim + 1) / 2
			for _, k := range []int{2, 3, 255, 256} {
				pt := handPQ(t, rows, dim, m, k)
				qq := pt.Query(dtypeTable(3, dim).Row(1), nil)
				tab := qq.(*pqQuery).tab
				x := uint64(k*1000 + dim)
				for n := 1; n <= 40; n++ {
					ids := make([]int32, n)
					for i := range ids {
						x = splitmix64(x)
						ids[i] = int32(x % rows)
					}
					ids[n/2], ids[n-1] = ids[0], rows-1
					out := make([]float64, n+1)
					for i := range out {
						out[i] = math.NaN()
					}
					out[n] = sentinel
					qq.ScoreRows(ids, out[:n])
					for i, r := range ids {
						if want := pqScoreRef(pt, tab, int(r)); math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("dim %d K %d batch of %d: row %d (slot %d) = %v (%#x), want %v (%#x)", dim, k, n, r, i,
								out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
						}
					}
					if out[n] != sentinel {
						t.Fatalf("dim %d K %d batch of %d: wrote past its ids", dim, k, n)
					}
				}
			}
		}
	})
}

// TestF32ScoresMatchPerRow is the same statement for the float32
// table: one float32 chain per row, products in column order.
func TestF32ScoresMatchPerRow(t *testing.T) {
	const rows = 1031
	for _, cols := range []int{1, 2, 3, 7, 8, 256} {
		ft := ToF32(dtypeTable(rows, cols), 2)
		ft.Data[5*cols] = float32(math.Inf(1)) // a row that overflows must not leak into its neighbours
		q := dtypeTable(3, cols).Row(1)
		checkScoreRows(t, "f32", rows, ft.Query(q, nil), func(r int) float64 {
			var acc float32
			for j := 0; j < cols; j++ {
				acc += float32(q[j]) * ft.Data[r*cols+j]
			}
			return float64(acc)
		})
	}
}

// TestPQQueryEntriesMatchDot: every ADC entry has Dot's bits, for spans
// on both sides of simdMinLen, even and uneven splits (at dim 9 and
// M 5, ResolvePQ's default, a span of 1 then spans of 2), K below the
// span-2 kernel's four, on it and at every K mod 4 after it, K with and
// without a dot4 remainder, and the values a sum started from +0
// treats specially: a -0 product (the entry is +0), NaN, infinities of
// both signs and subnormals. The same tables built on the portable
// loops alone — what arm64 runs — have the same bits.
func TestPQQueryEntriesMatchDot(t *testing.T) {
	tabs := pqEntryTables(t)
	t.Run("portable", func(t *testing.T) {
		forceLevel(t, levelGo)
		for i, tab := range pqEntryTables(t) {
			requireSameBits(t, fmt.Sprintf("table %d on the portable loops", i), tab, tabs[i])
		}
	})
}

// pqEntryTables builds and checks TestPQQueryEntriesMatchDot's tables
// and returns them in order.
func pqEntryTables(t *testing.T) [][]float64 {
	t.Helper()
	var tabs [][]float64
	shapes := [][2]int{{3, 3}, {6, 3}, {9, 3}, {12, 3}, {15, 3}, {7, 3}, {7, 2}, {9, 5}, {256, 128}} // dim, M
	for _, sh := range shapes {
		dim, m := sh[0], sh[1]
		for _, k := range []int{2, 3, 4, 5, 7, 8, 9, 256} {
			pt := handPQ(t, 4, dim, m, k)
			q := append([]float64(nil), dtypeTable(5, dim).Row(4)...)
			cent := pt.Centroids
			// Centroid 0 of subspace 0 is all zeros and the query is
			// negative there: every product is -0.
			w0 := dim / m
			for j := 0; j < w0; j++ {
				cent[j], q[j] = 0, -1-float64(j)
			}
			// Centroid 1 of subspace 0 holds the special values.
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324}
			for j := 0; j < w0; j++ {
				cent[w0+j] = special[(j+k)%len(special)]
			}
			tab := pt.Query(q, nil).(*pqQuery).tab
			requireEntriesMatchDot(t, fmt.Sprintf("dim %d M %d K %d", dim, m, k), pt, q, tab)
			if bits := math.Float64bits(tab[0]); bits != 0 {
				t.Fatalf("dim %d M %d K %d: all -0 products gave %#x, want +0", dim, m, k, bits)
			}
			tabs = append(tabs, tab)
		}
	}
	return tabs
}

// TestQueryScratchReuseNeverShows: a query prepared in a scratch that
// an earlier query left NaN-filled — longer than this table needs, so
// it is reused rather than grown — has the bits of one prepared in a
// fresh scratch. The ADC tables run spans of 1, 2 and 3 and the mixed
// splits (a span of 1 then spans of 2; spans of 2 then one of 3), a
// span wide enough for dot4, and K at every residue mod 4 on both
// sides of the span-2 kernel's four, at every kernel level; an
// F32Table query scores from a reused, NaN-filled float32 vector.
func TestQueryScratchReuseNeverShows(t *testing.T) {
	nan32 := float32(math.NaN())
	poisoned := func(n int) *QueryScratch {
		s := &QueryScratch{tab: make([]float64, n+8), q32: make([]float32, n+8)}
		for i := range s.tab {
			s.tab[i], s.q32[i] = math.NaN(), nan32
		}
		return s
	}
	atEveryLevel(t, func(t *testing.T) {
		shapes := [][2]int{{3, 3}, {6, 3}, {9, 3}, {9, 5}, {7, 3}, {12, 2}} // dim, M
		for _, sh := range shapes {
			dim, m := sh[0], sh[1]
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
				tag := fmt.Sprintf("dim %d M %d K %d", dim, m, k)
				pt := handPQ(t, 4, dim, m, k)
				q := dtypeTable(5, dim).Row(4)
				want := pt.Query(q, nil).(*pqQuery).tab
				s := poisoned(m*k + 256)
				got := pt.Query(q, s).(*pqQuery).tab
				if &got[0] != &s.tab[0] {
					t.Fatalf("%s: the table was not built in the scratch's buffer", tag)
				}
				requireSameBits(t, tag+" in a poisoned scratch", got, want)
				requireEntriesMatchDot(t, tag, pt, q, got)
			}
		}
		src := dtypeTable(40, 9)
		ft := ToF32(src, 1)
		ids := idRange(0, 40)
		want, got := make([]float64, 40), make([]float64, 40)
		ft.Query(src.Row(3), nil).ScoreRows(ids, want)
		s := poisoned(9)
		ft.Query(src.Row(3), s).ScoreRows(ids, got)
		requireSameBits(t, "f32 in a poisoned scratch", got, want)
	})
}

// TestQueryScratchGrows: a scratch too short for the table is grown,
// and one query after another through the same scratch each get their
// own table's bits.
func TestQueryScratchGrows(t *testing.T) {
	small, large := handPQ(t, 4, 6, 3, 4), handPQ(t, 4, 12, 6, 9)
	var s QueryScratch
	for i, pt := range []*PQTable{small, large, small} {
		q := dtypeTable(5, pt.ColsN).Row(i)
		requireSameBits(t, fmt.Sprintf("query %d", i),
			pt.Query(q, &s).(*pqQuery).tab, pt.Query(q, nil).(*pqQuery).tab)
	}
	if cap(s.tab) < 6*9 {
		t.Fatalf("scratch table capacity %d after a 6 x 9 table", cap(s.tab))
	}
}

// requireEntriesMatchDot checks that every entry of pt's ADC table tab
// for query q has the bits of Dot(query_s, centroid), walking the
// packed codebook block by block to its end.
func requireEntriesMatchDot(t *testing.T, tag string, pt *PQTable, q, tab []float64) {
	t.Helper()
	dim, m, k, cent := pt.ColsN, pt.Params.M, pt.Params.K, pt.Centroids
	off := 0
	for s := 0; s < m; s++ {
		lo, hi := subSpan(dim, m, s)
		w := hi - lo
		for c := 0; c < k; c++ {
			want := Dot(q[lo:hi], cent[off+c*w:off+(c+1)*w])
			if got := tab[s*k+c]; !sameBits(got, want) {
				t.Fatalf("%s: entry (%d,%d) = %v (%#x), Dot gives %v (%#x)",
					tag, s, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		off += k * w
	}
	if off != PQCentroidsLen(dim, m, k) || off != len(cent) {
		t.Fatalf("%s: blocks end at %d, PQCentroidsLen %d, codebook %d",
			tag, off, PQCentroidsLen(dim, m, k), len(cent))
	}
}

// TestQuantQueryShortPanics: a query shorter than the table is wide
// panics in Query, before anything is scored — also when spare
// capacity would let a re-slice reach past its length.
func TestQuantQueryShortPanics(t *testing.T) {
	src := dtypeTable(16, 6)
	tables := map[string]Quantized{"f32": ToF32(src, 1), "i8pq": handPQ(t, 16, 6, 3, 4)}
	for name, qt := range tables {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Query accepted a 5-element query for a 6-column table", name)
				}
			}()
			qt.Query(make([]float64, 5, 8), nil)
		}()
	}
}

// TestQuantConcurrentQueries: tables are immutable after construction,
// so any number of goroutines may prepare and score queries on one
// table at once (run under -race), each getting the serial answer.
func TestQuantConcurrentQueries(t *testing.T) {
	const rows, dim, goroutines = 203, 12, 8
	src := dtypeTable(rows, dim)
	for name, qt := range map[string]Quantized{"f32": ToF32(src, 1), "i8pq": TrainPQ(src, ResolvePQ(rows, dim), 2)} {
		want := make([][]float64, goroutines)
		for g := range want {
			want[g] = make([]float64, rows)
			qt.Query(src.Row(g), nil).ScoreRows(idRange(0, rows), want[g])
		}
		errs := make(chan string, goroutines) // one send per goroutine at most
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]float64, rows)
				for rep := 0; rep < 20; rep++ {
					qq := qt.Query(src.Row(g), nil)
					mid := rows/2 + rep%4
					qq.ScoreRows(idRange(0, mid), got[:mid])
					qq.ScoreRows(idRange(mid, rows), got[mid:])
					for r := range got {
						if !sameBits(got[r], want[g][r]) {
							errs <- fmt.Sprintf("%s goroutine %d rep %d: row %d = %v, want %v", name, g, rep, r, got[r], want[g][r])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
