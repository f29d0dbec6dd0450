package ann

import (
	"sort"

	"gsgcn/internal/mat"
)

// This file is the recall harness: the exact reference scanner and
// the recall@K measurement that certifies an index against it. The
// serving layer's acceptance bar (recall@10 >= 0.95 at the default
// ef on Table-I-shaped graphs) is enforced by tests built on these.

// ExactTopK is the brute-force reference scanner: it scores every
// vertex of the table against the query and returns the k best under
// the Before total order — the same arithmetic and the same order as
// the serving layer's exact scan, which selects through TopK where
// this sorts everything, so ANN answers are comparable
// element-for-element.
func ExactTopK(emb *mat.Dense, norms []float64, query []float64, qn float64, k int, exclude int32) []Candidate {
	n := emb.NumRows()
	if k < 1 || n == 0 {
		return nil
	}
	all := make([]Candidate, 0, n)
	for v := 0; v < n; v++ {
		if int32(v) == exclude {
			continue
		}
		score := 0.0
		if d := qn * norms[v]; d > 0 {
			score = mat.Dot(query, emb.Row(v)) / d
		}
		all = append(all, Candidate{ID: int32(v), Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		return Before(all[i].Score, all[i].ID, all[j].Score, all[j].ID)
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// ExactTopKVertex is ExactTopK for an indexed vertex id, excluding
// the vertex itself — the ground truth for SearchVertex.
func (ix *Index) ExactTopKVertex(v int32, k int) []Candidate {
	return ExactTopK(ix.emb, ix.norms, ix.emb.Row(int(v)), ix.norms[v], k, v)
}

// RecallReport is the outcome of one recall measurement.
type RecallReport struct {
	K, Ef   int
	Queries int
	// Recall is mean(|ann ∩ exact| / |exact|) over the query set —
	// recall@K against the brute-force scanner.
	Recall float64
	// Worst is the lowest per-query recall observed.
	Worst float64
}

// RecallAtK measures recall@K over the given query vertex ids: for
// each, the index's top-K (beam width ef) is compared as a set
// against the exact scanner's top-K, both excluding the query vertex
// itself. Deterministic for a fixed index and query list.
func (ix *Index) RecallAtK(queries []int32, k, ef int) RecallReport {
	rep := RecallReport{K: k, Ef: ef, Queries: len(queries), Worst: 1}
	if len(queries) == 0 {
		return rep
	}
	sum := 0.0
	for _, q := range queries {
		exact := ix.ExactTopKVertex(q, k)
		if len(exact) == 0 {
			continue
		}
		want := make(map[int32]bool, len(exact))
		for _, c := range exact {
			want[c.ID] = true
		}
		got := ix.SearchVertex(q, k, ef)
		hits := 0
		for _, c := range got {
			if want[c.ID] {
				hits++
			}
		}
		r := float64(hits) / float64(len(exact))
		sum += r
		if r < rep.Worst {
			rep.Worst = r
		}
	}
	rep.Recall = sum / float64(len(queries))
	return rep
}
