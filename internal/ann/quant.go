package ann

import (
	"fmt"

	"gsgcn/internal/mat"
)

// This file is the quantized ANN path: the index's graph walk steered
// by scores from a compact table (float32 or int8-PQ codes), which
// produces a candidate beam, and the exact rerank that rescores the
// beam from float64 rows. The two compose into the serving layer's ANN
// mode for non-f64 dtypes: a few hundred rows of the compact table are
// scored per query instead of all of them, recall is bounded by the
// beam width exactly as on the f64 walk, and every reported score is
// bit-identical to the exact scanner's score for that row —
// quantization can change *which* rows are answered, never what score
// a row is answered with.

// quantScorer is the approximate cosine over a quantized table: the
// prepared query's approximate dot over qn*norms[r], with sim's
// zero-norm rule — the scorer of SearchQuant.
type quantScorer struct {
	qq    mat.QuantQuery
	norms []float64
	qn    float64
}

func (s quantScorer) scoreRows(ids []int32, out []float64) {
	s.qq.ScoreRows(ids, out)
	for i, v := range ids {
		if d := s.qn * s.norms[v]; d > 0 {
			out[i] /= d
		} else {
			out[i] = 0
		}
	}
}

// SearchQuant is the same walk scored through a quantized table of the
// indexed rows instead of the rows themselves: it returns the whole
// ef-wide beam (Params.EfSearch when ef <= 0) ranked by approximate
// cosine, for RerankExact to rescore — the graph's links were chosen
// on exact scores, only the steering is approximate. The ADC table or
// converted vector is prepared once, in the walk's pooled scratch
// beside its visited bits and heaps, so a query allocates no table;
// each expansion then scores its neighbors in one gather pass over the
// codes. The returned beam is the caller's own.
func (ix *Index) SearchQuant(qt mat.Quantized, query []float64, qn float64, ef int, exclude int32) []Candidate {
	if qt.NumRows() != len(ix.nodes) {
		panic(fmt.Sprintf("ann: quantized table has %d rows, index %d vertices", qt.NumRows(), len(ix.nodes)))
	}
	if len(ix.nodes) == 0 {
		return nil
	}
	if ef <= 0 {
		ef = ix.params.EfSearch
	}
	s := getScratch(len(ix.nodes))
	beam := ix.beam(s, quantScorer{qt.Query(query, &s.quant), ix.norms, qn}, ef, exclude)
	putScratch(s)
	return beam
}

// RerankExact rescores a candidate beam with the exact float64
// cosine — the very arithmetic of the exact scanner, so each returned
// score is bit-identical to what an exact scan would report for that
// row — and returns the k best under the Before order. It selects
// through TopK as the exact scanner does, so a row whose exact score is
// not a number is dropped here as it is there. The selector's array is
// sized once, to what it can hold.
func RerankExact(emb *mat.Dense, norms []float64, q []float64, qn float64, beam []Candidate, k int) []Candidate {
	tk := &TopK{k: k, h: heap{v: make([]Candidate, 0, max(0, min(k, len(beam))))}}
	for _, c := range beam {
		score := 0.0
		if d := qn * norms[c.ID]; d > 0 {
			score = mat.Dot(q, emb.Row(int(c.ID))) / d
		}
		tk.Offer(c.ID, score)
	}
	return tk.Sorted()
}
