package ann

import (
	"math"
	"testing"

	"gsgcn/internal/mat"
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
	exactBits := make(map[int32]uint64)
	for name, qt := range quantizers(emb) {
		for _, v := range []int{0, 17, 400, 799} {
			q := emb.Row(v)
			qn := norms[v]
			for _, c := range ExactTopK(emb, norms, q, qn, 800, int32(v)) {
				exactBits[c.ID] = math.Float64bits(c.Score)
			}
			beam := ScanQuant(qt, norms, q, qn, 64, int32(v), 3)
			got := RerankExact(emb, norms, q, qn, beam, 10)
			if len(got) != 10 {
				t.Fatalf("%s v=%d: rerank returned %d, want 10", name, v, len(got))
			}
			for i, c := range got {
				if math.Float64bits(c.Score) != exactBits[c.ID] {
					t.Fatalf("%s v=%d rank %d: reranked score %v for id %d is not the exact scanner's score",
						name, v, i, c.Score, c.ID)
				}
				if i > 0 && !Before(got[i-1].Score, got[i-1].ID, c.Score, c.ID) {
					t.Fatalf("%s v=%d: rerank output not in Before order at rank %d", name, v, i)
				}
			}
		}
	}
}

// TestQuantRecallAtK enforces the memory plane's recall floor on a
// >= 2k-row table: scanning the quantized representation with the
// serving default beam (ef=64) and exact-reranking to k=10 must reach
// recall@10 >= 0.95 for int8-PQ; f32 is a rounding of the exact table
// and must do at least as well.
func TestQuantRecallAtK(t *testing.T) {
	const (
		n, dim = 2048, 32
		k, ef  = 10, 64
	)
	emb, norms := randTable(n, dim, 16, 21)
	floors := map[string]float64{"f32": 0.99, "i8pq": 0.95}
	for name, qt := range quantizers(emb) {
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
			beam := ScanQuant(qt, norms, q, qn, ef, int32(v), 4)
			hits := 0
			for _, c := range RerankExact(emb, norms, q, qn, beam, k) {
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
		recall := sum / float64(queries)
		t.Logf("%s: recall@%d = %.4f over %d queries (worst %.2f) at ef=%d", name, k, recall, queries, worst, ef)
		if recall < floors[name] {
			t.Errorf("%s: recall@%d = %.4f below the %.2f floor", name, k, recall, floors[name])
		}
	}
}
