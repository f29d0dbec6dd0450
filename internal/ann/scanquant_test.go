package ann

import (
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// This file keeps the flat quantized scan the serving path ran before
// the walk (ISSUE 21) as the in-package reference: the cross-commit
// pin, the recall tests and BenchmarkAnnScanDtype hold SearchQuant
// against the beam that scoring every row would have produced.

// quantChunk is the row block a scan worker scores per ScoreRows call —
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
	qq := qt.Query(q, nil)
	parts := make([]*TopK, shards)
	perf.Parallel(shards, workers, func(_, slo, shi int) {
		var buf [quantChunk]float64
		var ids [quantChunk]int32
		for s := slo; s < shi; s++ {
			lo := s * n / shards
			hi := (s + 1) * n / shards
			tk := NewTopK(ef)
			for blk := lo; blk < hi; blk += quantChunk {
				end := blk + quantChunk
				if end > hi {
					end = hi
				}
				ids := ids[:end-blk]
				for i := range ids {
					ids[i] = int32(blk + i)
				}
				qq.ScoreRows(ids, buf[:end-blk])
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

// merge offers everything other holds, in heap order: selection under
// a total order does not depend on the order of offers.
func (t *TopK) merge(other *TopK) {
	for _, c := range other.h.v {
		t.Offer(c.ID, c.Score)
	}
}
