package ann

import (
	"sort"

	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// This file is the quantized ANN path: a flat scan over a compact
// table (float32 or int8-PQ codes) that produces a candidate beam,
// and the exact rerank that rescores the beam from float64 rows. The
// two compose into the serving layer's ANN mode for non-f64 dtypes:
// recall is bounded by the beam width exactly as with HNSW, while
// every reported score is bit-identical to the exact scanner's score
// for that row — quantization can change *which* rows are answered,
// never what score a row is answered with.

// quantChunk is the row block a scan worker scores per Scores call —
// large enough to amortize the interface dispatch, small enough to
// stay in cache.
const quantChunk = 1024

// ScanQuant scans the quantized table and returns the ef best rows
// by approximate cosine (approximate dot over qn*norms[r], the same
// normalization as the exact scan), excluding row id exclude (-1 =
// none). Candidates are returned best-first under the Before total
// order; because top-ef selection under a total order is independent
// of the scan decomposition, the beam is bit-identical at every
// workers setting.
func ScanQuant(qt mat.Quantized, norms []float64, q []float64, qn float64, ef int, exclude int32, workers int) []Candidate {
	n := qt.NumRows()
	if ef < 1 || n == 0 {
		return nil
	}
	shards := workers
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	qq := qt.Query(q)
	parts := make([]*TopK, shards)
	perf.Parallel(shards, workers, func(_, slo, shi int) {
		var buf [quantChunk]float64
		for s := slo; s < shi; s++ {
			lo := s * n / shards
			hi := (s + 1) * n / shards
			tk := NewTopK(ef)
			for blk := lo; blk < hi; blk += quantChunk {
				end := blk + quantChunk
				if end > hi {
					end = hi
				}
				qq.Scores(blk, end, buf[:end-blk])
				for r := blk; r < end; r++ {
					if int32(r) == exclude {
						continue
					}
					score := 0.0
					if d := qn * norms[r]; d > 0 {
						score = buf[r-blk] / d
					}
					tk.Offer(int32(r), score)
				}
			}
			parts[s] = tk
		}
	})
	final := parts[0]
	for _, tk := range parts[1:] {
		final.merge(tk)
	}
	return final.Sorted()
}

// RerankExact rescores a candidate beam with the exact float64
// cosine — the very arithmetic of the exact scanner, so each returned
// score is bit-identical to what an exact scan would report for that
// row — and returns the k best under the Before order.
func RerankExact(emb mat.RowSource, norms []float64, q []float64, qn float64, beam []Candidate, k int) []Candidate {
	if k < 1 || len(beam) == 0 {
		return nil
	}
	out := make([]Candidate, len(beam))
	for i, c := range beam {
		score := 0.0
		if d := qn * norms[c.ID]; d > 0 {
			score = mat.Dot(q, emb.Row(int(c.ID))) / d
		}
		out[i] = Candidate{ID: c.ID, Score: score}
	}
	sort.Slice(out, func(i, j int) bool {
		return Before(out[i].Score, out[i].ID, out[j].Score, out[j].ID)
	})
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}
