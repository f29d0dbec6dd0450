package ann

import (
	"math"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// quantizers builds both lossy representations over a table.
func quantizers(emb *mat.Dense) map[string]mat.Quantized {
	return map[string]mat.Quantized{
		"f32":  mat.ToF32(emb, 2),
		"i8pq": mat.TrainPQ(emb, mat.ResolvePQ(emb.Rows, emb.Cols), 2),
	}
}

// TestScanQuantWorkerInvariance: the beam is a top-ef selection under
// the Before total order, so it must be bit-identical at every worker
// count, for both quantized representations.
func TestScanQuantWorkerInvariance(t *testing.T) {
	emb, norms := randTable(500, 16, 8, 3)
	for name, qt := range quantizers(emb) {
		q := emb.Row(42)
		qn := norms[42]
		ref := ScanQuant(qt, norms, q, qn, 64, 42, 1)
		if len(ref) != 64 {
			t.Fatalf("%s: beam has %d candidates, want 64", name, len(ref))
		}
		for _, w := range []int{2, 3, 7, 16} {
			got := ScanQuant(qt, norms, q, qn, 64, 42, w)
			if len(got) != len(ref) {
				t.Fatalf("%s workers=%d: beam size %d vs %d", name, w, len(got), len(ref))
			}
			for i := range ref {
				if got[i].ID != ref[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) {
					t.Fatalf("%s workers=%d: beam[%d] = %+v, want %+v", name, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestScanQuantEdgeCases: empty tables, tiny ef, no exclusion.
func TestScanQuantEdgeCases(t *testing.T) {
	emb, norms := randTable(10, 4, 2, 1)
	qt := mat.ToF32(emb, 1)
	if got := ScanQuant(qt, norms, emb.Row(0), norms[0], 0, -1, 2); got != nil {
		t.Errorf("ef=0 returned %d candidates", len(got))
	}
	beam := ScanQuant(qt, norms, emb.Row(0), norms[0], 100, -1, 2)
	if len(beam) != 10 {
		t.Errorf("ef beyond n returned %d candidates, want all 10", len(beam))
	}
	beam = ScanQuant(qt, norms, emb.Row(0), norms[0], 100, 0, 2)
	for _, c := range beam {
		if c.ID == 0 {
			t.Error("excluded row returned")
		}
	}
}

// TestScanQuantIgnoresNaNRow: a row whose score is not a number ranks
// nothing. The beam over a table holding one such row — early in the
// scan, where a selector that admitted it would carry it to the root
// and then lose to no later candidate — must be the beam over the same
// table with that row excluded.
func TestScanQuantIgnoresNaNRow(t *testing.T) {
	const bad = 3
	emb, norms := randTable(300, 16, 8, 5)
	q, qn := emb.Row(42), norms[42]
	poisoned := emb.Clone()
	for j := range poisoned.Row(bad) {
		poisoned.Row(bad)[j] = math.NaN()
	}
	for _, workers := range []int{1, 3} {
		want := ScanQuant(mat.ToF32(emb, 1), norms, q, qn, 32, bad, workers)
		got := ScanQuant(mat.ToF32(poisoned, 1), norms, q, qn, 32, -1, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: beam has %d candidates, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: beam[%d] = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRerankExactBitIdentity is the exactness half of the quantized
// ANN contract: every score RerankExact reports must be bit-identical
// to the exact scanner's score for that row — quantization may change
// which rows are answered, never the score a row is answered with.
func TestRerankExactBitIdentity(t *testing.T) {
	emb, norms := randTable(800, 24, 12, 9)
	ix := Build(emb, norms, Params{}, 2)
	exactBits := make(map[int32]uint64)
	searches := map[string]beamSearch{"walk": ix.SearchQuant, "scan": flatScan(norms, 3)} // served, reference
	for name, qt := range quantizers(emb) {
		for _, v := range []int{0, 17, 400, 799} {
			q := emb.Row(v)
			qn := norms[v]
			for _, c := range ExactTopK(emb, norms, q, qn, 800, int32(v)) {
				exactBits[c.ID] = math.Float64bits(c.Score)
			}
			for how, search := range searches {
				got := RerankExact(emb, norms, q, qn, search(qt, q, qn, 64, int32(v)), 10)
				if len(got) != 10 {
					t.Fatalf("%s %s v=%d: rerank returned %d, want 10", name, how, v, len(got))
				}
				for i, c := range got {
					if math.Float64bits(c.Score) != exactBits[c.ID] {
						t.Fatalf("%s %s v=%d rank %d: reranked score %v for id %d is not the exact scanner's score",
							name, how, v, i, c.Score, c.ID)
					}
					if i > 0 && !Before(got[i-1].Score, got[i-1].ID, c.Score, c.ID) {
						t.Fatalf("%s %s v=%d: rerank output not in Before order at rank %d", name, how, v, i)
					}
				}
			}
		}
	}
}

// TestRerankExactDropsNaN: a beam row whose exact score is not a
// number — here Inf in the query times 0 in the row, which no
// approximate score need share — is dropped as TopK drops it from the
// exact scan, instead of sorting to wherever NaN lands; the rows beside
// it keep their exact scores and their order.
func TestRerankExactDropsNaN(t *testing.T) {
	emb, norms := randTable(50, 6, 3, 4)
	emb.Row(3)[0], emb.Row(20)[0] = 0, 0
	q := append([]float64(nil), emb.Row(9)...)
	q[0] = math.Inf(1)
	beam := make([]Candidate, 0, emb.Rows)
	want := NewTopK(10)
	for v := 0; v < emb.Rows; v++ {
		beam = append(beam, Candidate{ID: int32(v), Score: 1}) // whatever the table said
		want.Offer(int32(v), mat.Dot(q, emb.Row(v))/(norms[9]*norms[v]))
	}
	got := RerankExact(emb, norms, q, norms[9], beam, 10)
	if len(got) != 10 {
		t.Fatalf("rerank returned %d, want 10", len(got))
	}
	for i, c := range want.Sorted() {
		if c.ID == 3 || c.ID == 20 || math.IsNaN(got[i].Score) || got[i] != c {
			t.Fatalf("rank %d: %+v, the exact selection has %+v", i, got[i], c)
		}
	}
}

// TestQuantRecallAtK enforces the memory plane's recall floor on a
// >= 2k-row table: walking the index over the quantized representation
// with the serving default beam (ef=64) and exact-reranking to k=10
// must reach recall@10 >= 0.95 for int8-PQ; f32 is a rounding of the
// exact table and must do at least as well. The flat scan of the same
// table is the reference: the walk sees a few hundred rows where the
// scan sees all of them, and may not pay more than 0.01 of recall for
// it.
func TestQuantRecallAtK(t *testing.T) {
	const (
		n, dim = 2048, 32
		k, ef  = 10, 64
	)
	emb, norms := randTable(n, dim, 16, 21)
	ix := Build(emb, norms, Params{}, 2)
	floors := map[string]float64{"f32": 0.99, "i8pq": 0.95}
	for name, qt := range quantizers(emb) {
		searches := map[string]beamSearch{"walk": ix.SearchQuant, "scan": flatScan(norms, 4)}
		recall := map[string]float64{}
		for how, search := range searches {
			sum, worst := 0.0, 1.0
			queries := 0
			for v := 0; v < n; v += 31 {
				q := emb.Row(v)
				qn := norms[v]
				exact := ExactTopK(emb, norms, q, qn, k, int32(v))
				want := make(map[int32]bool, len(exact))
				for _, c := range exact {
					want[c.ID] = true
				}
				hits := 0
				for _, c := range RerankExact(emb, norms, q, qn, search(qt, q, qn, ef, int32(v)), k) {
					if want[c.ID] {
						hits++
					}
				}
				r := float64(hits) / float64(len(exact))
				sum += r
				if r < worst {
					worst = r
				}
				queries++
			}
			recall[how] = sum / float64(queries)
			t.Logf("%s %s: recall@%d = %.4f over %d queries (worst %.2f) at ef=%d", name, how, k, recall[how], queries, worst, ef)
		}
		if recall["walk"] < floors[name] {
			t.Errorf("%s: walk recall@%d = %.4f below the %.2f floor", name, k, recall["walk"], floors[name])
		}
		if recall["walk"] < recall["scan"]-0.01 {
			t.Errorf("%s: walk recall@%d = %.4f, more than 0.01 under the flat scan's %.4f", name, k, recall["walk"], recall["scan"])
		}
	}
}

// TestSearchQuantEdgeCases: an empty index answers nothing, ef <= 0
// means the index's default beam, the beam is never wider than ef and
// never holds the excluded row, and a table that is not the index's
// rows is a caller's bug, not a query.
func TestSearchQuantEdgeCases(t *testing.T) {
	emb, norms := randTable(300, 8, 4, 1)
	ix := Build(emb, norms, Params{EfSearch: 24}, 2)
	qt := mat.ToF32(emb, 1)
	if got := Build(mat.New(0, 8), nil, Params{}, 1).SearchQuant(mat.ToF32(mat.New(0, 8), 1), emb.Row(0), norms[0], 8, -1); got != nil {
		t.Errorf("empty index returned %d candidates", len(got))
	}
	if got := ix.SearchQuant(qt, emb.Row(0), norms[0], 0, -1); len(got) != 24 {
		t.Errorf("ef=0 returned %d candidates, want the default beam of 24", len(got))
	}
	beam := ix.SearchQuant(qt, emb.Row(7), norms[7], 16, 7)
	checkBeam(t, "exclude", beam, 300, 16, 7)
	if len(beam) != 16 {
		t.Errorf("ef=16 returned %d candidates", len(beam))
	}
	defer func() {
		if recover() == nil {
			t.Error("a 10-row table was searched with a 300-vertex index")
		}
	}()
	small, _ := randTable(10, 8, 2, 1)
	ix.SearchQuant(mat.ToF32(small, 1), emb.Row(0), norms[0], 8, -1)
}

// checkBeam asserts what every beam owes its caller whatever went into
// it: at most ef candidates, ids in range and distinct, the excluded
// row absent, no score that is not a number, and strict Before order.
func checkBeam(t *testing.T, name string, beam []Candidate, n, ef int, exclude int32) {
	t.Helper()
	if len(beam) > ef {
		t.Fatalf("%s: beam of %d for ef=%d", name, len(beam), ef)
	}
	for i, c := range beam {
		if c.ID < 0 || int(c.ID) >= n || c.ID == exclude {
			t.Fatalf("%s: beam[%d] has id %d (n=%d, exclude=%d)", name, i, c.ID, n, exclude)
		}
		if math.IsNaN(c.Score) {
			t.Fatalf("%s: beam[%d] = %+v: a NaN-scored candidate", name, i, c)
		}
		if i > 0 && !Before(beam[i-1].Score, beam[i-1].ID, c.Score, c.ID) {
			t.Fatalf("%s: beam not in Before order at %d: %+v then %+v", name, i, beam[i-1], c)
		}
	}
}

// TestSearchQuantHostileNumbers is ROADMAP 1-ii for the quantized walk:
// numbers that are not numbers in the compact table, the norms or the
// query never panic, never hang and never put a NaN-scored candidate
// in a beam, and every beam stays sorted under Before. What each input
// gets, asserted below and then held as a property over seeded random
// mixtures of all of them:
//
//   - a NaN row in the table (f32: the row; i8pq: a centroid, so every
//     row coded with it): its score is NaN, TopK.admits refuses it, so
//     it enters neither the beam nor the frontier — the walk passes
//     around it as around a vertex with no links. The flat scan gives
//     such a row the same nothing (TestScanQuantIgnoresNaNRow).
//   - the entry point itself scoring NaN: no greedy step can beat or
//     lose to NaN under Before, so the descent stays put and ends; the
//     base-layer search expands the entry once (the beam is not full)
//     and goes on from its neighbours. The entry is not in the beam.
//   - a +Inf / -Inf element in a row: the row scores +Inf or -Inf (or
//     NaN, when both signs meet) and ranks first or last like any other
//     number; RerankExact then replaces the score with the exact one.
//   - a NaN or zero norm: qn*norm > 0 is false, the row scores 0 — the
//     exact scanner's zero-norm rule.
//   - an all-zero query (qn 0), or a NaN query whose norm is therefore
//     NaN: every row scores 0, the beam is ef rows ranked by id among
//     those the walk reached.
//   - a NaN query handed in with a finite norm: every row scores NaN and
//     the beam is empty — an empty answer, not "the first ef rows".
func TestSearchQuantHostileNumbers(t *testing.T) {
	const n, dim, ef = 600, 16, 32
	emb, norms := randTable(n, dim, 8, 15)
	ix := Build(emb, norms, Params{}, 2)
	nan, inf := math.NaN(), math.Inf(1)
	q, qn := emb.Row(42), norms[42]

	// poison returns a copy of the named representation in which row
	// bad scores through elem: for f32 the row's first column, for
	// i8pq the first element of the centroid bad is coded with in
	// subspace 0.
	poison := func(name string, bad int, elem float64) mat.Quantized {
		if name == "f32" {
			ft := mat.ToF32(emb, 1)
			ft.Data[bad*dim] = float32(elem)
			return ft
		}
		pq := *mat.TrainPQ(emb, mat.ResolvePQ(n, dim), 2)
		pq.Centroids = append([]float64(nil), pq.Centroids...)
		w := dim / pq.Params.M // ResolvePQ splits dim 16 evenly
		pq.Centroids[int(pq.Codes[bad*pq.Params.M])*w] = elem
		return &pq
	}
	withNorm := func(v int, norm float64) *Index {
		cp := *ix
		cp.norms = append([]float64(nil), norms...)
		cp.norms[v] = norm
		return &cp
	}
	holds := func(beam []Candidate, id int32) (Candidate, bool) {
		for _, c := range beam {
			if c.ID == id {
				return c, true
			}
		}
		return Candidate{}, false
	}
	clean := ix.SearchQuant(mat.ToF32(emb, 1), q, qn, ef, 42)
	near := clean[0].ID // a row the clean walk is certain to score

	for _, name := range []string{"f32", "i8pq"} {
		beam := ix.SearchQuant(poison(name, int(near), nan), q, qn, ef, 42)
		checkBeam(t, name+" NaN row", beam, n, ef, 42)
		if _, ok := holds(beam, near); ok || len(beam) == 0 {
			t.Errorf("%s: NaN row %d in a beam of %d", name, near, len(beam))
		}

		beam = ix.SearchQuant(poison(name, int(ix.entry), nan), q, qn, ef, 42)
		checkBeam(t, name+" NaN entry", beam, n, ef, 42)
		if _, ok := holds(beam, ix.entry); ok || len(beam) == 0 {
			t.Errorf("%s: NaN entry point %d in a beam of %d", name, ix.entry, len(beam))
		}

		for _, elem := range []float64{inf, -inf} {
			beam = ix.SearchQuant(poison(name, int(near), elem), q, qn, ef, 42)
			checkBeam(t, name+" Inf row", beam, n, ef, 42)
			if c, ok := holds(beam, near); ok && !math.IsInf(c.Score, 0) {
				t.Errorf("%s: row with a %v element scored %v", name, elem, c.Score)
			}
			for _, c := range RerankExact(emb, norms, q, qn, beam, 10) {
				if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) {
					t.Errorf("%s: rerank of a beam over a %v row reports %+v", name, elem, c)
				}
			}
		}

		qt := quantizers(emb)[name]
		for _, norm := range []float64{nan, 0} {
			beam = withNorm(int(near), norm).SearchQuant(qt, q, qn, ef, 42)
			checkBeam(t, name+" bad norm", beam, n, ef, 42)
			if c, ok := holds(beam, near); ok && c.Score != 0 {
				t.Errorf("%s: row with norm %v scored %v, want 0", name, norm, c.Score)
			}
		}

		nanQuery := append([]float64(nil), q...)
		nanQuery[3] = nan
		for what, beam := range map[string][]Candidate{
			"zero query": ix.SearchQuant(qt, make([]float64, dim), 0, ef, -1),
			"NaN query":  ix.SearchQuant(qt, nanQuery, nan, ef, -1),
		} {
			checkBeam(t, name+" "+what, beam, n, ef, -1)
			if len(beam) != ef {
				t.Errorf("%s %s: beam of %d, want %d", name, what, len(beam), ef)
			}
			for _, c := range beam {
				if c.Score != 0 {
					t.Errorf("%s %s: %+v, want score 0", name, what, c)
				}
			}
		}
		if beam = ix.SearchQuant(qt, nanQuery, qn, ef, -1); len(beam) != 0 {
			t.Errorf("%s: NaN query with a finite norm got a beam of %d, want none", name, len(beam))
		}
	}

	// The property, over seeded mixtures: any number of poisoned rows
	// and norms, any of the hostile queries, any beam width.
	r := rng.New(99)
	hostile := []float64{nan, inf, -inf, 0, math.Copysign(0, -1), 5e-324}
	for trial := 0; trial < 60; trial++ {
		ft := mat.ToF32(emb, 1)
		bad := *ix
		bad.norms = append([]float64(nil), norms...)
		for i := r.Intn(40); i > 0; i-- {
			ft.Data[r.Intn(len(ft.Data))] = float32(hostile[r.Intn(len(hostile))])
			bad.norms[r.Intn(n)] = hostile[r.Intn(len(hostile))]
		}
		if trial%3 == 0 {
			for j := 0; j < dim; j++ {
				ft.Data[int(ix.entry)*dim+j] = float32(nan)
			}
		}
		v := r.Intn(n)
		query, norm := append([]float64(nil), emb.Row(v)...), norms[v]
		switch trial % 4 {
		case 1:
			query[r.Intn(dim)] = hostile[r.Intn(len(hostile))]
		case 2:
			norm = hostile[r.Intn(len(hostile))]
		}
		width := 1 + r.Intn(2*ef)
		checkBeam(t, "mixture", bad.SearchQuant(ft, query, norm, width, int32(v)), n, width, int32(v))
	}
}
