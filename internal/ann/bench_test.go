package ann

import (
	"fmt"
	"testing"

	"gsgcn/internal/mat"
)

// BenchmarkAnnScanDtype prices one ANN candidate search per resident
// representation on a Table-I-shaped table: f64 is the exact flat
// scan (the no-index baseline), f32 and i8pq run the flat quantized
// scan plus the exact rerank of the ef-wide beam — the reference the
// serving layer ran before it walked the graph. Each quantized case
// reports its recall@10 against the exact scanner so the speedup is
// never read without its accuracy.
//
// The shard2460x256 group is the shape that is served — one shard of
// the benchmark's serve_fleet workload, searched on one core — and the
// go test counterpart of serve.engine_topk_ann_i8pq_us: at dim 256 the
// ADC table is 128 x 256 entries (256 KB, out of L1), which the
// 8192 x 32 case (M 16, a 32 KB table) hides. It prices the two halves
// of a quantized search apart (query: the per-query table or vector,
// built in one reused scratch; scores: every row scored once, in one
// call; i8pq's scores-batchN: every row once, N scattered rows a call
// — the 1-to-16-row calls a walk's expansions make) and then
// the whole, both ways: scan+rerank scores every row, walk+rerank —
// what is served — the rows the HNSW walk visits. rows_scored/op and
// recall@10 sit beside each so neither time is read without what it
// bought.
func BenchmarkAnnScanDtype(b *testing.B) {
	emb, norms := randTable(8192, 32, 16, 5)
	b.Run("f64", func(b *testing.B) { benchExactScan(b, emb, norms) })
	for name, qt := range quantizers(emb) {
		b.Run(name, func(b *testing.B) { benchQuantSearch(b, emb, norms, qt, flatScan(norms, 4)) })
	}

	b.Run("shard2460x256", func(b *testing.B) {
		emb, norms := randTable(2460, 256, 16, 5)
		n := emb.Rows
		b.Run("f64/scan+rerank", func(b *testing.B) { benchExactScan(b, emb, norms) })
		qts := quantizers(emb)
		ix := Build(emb, norms, Params{}, 2)
		for _, name := range []string{"f32", "i8pq"} {
			qt := qts[name]
			b.Run(name+"/query", func(b *testing.B) {
				var s mat.QueryScratch // reused, as the walk's pooled scratch is
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchQuery = qt.Query(emb.Row(i%n), &s)
				}
			})
			b.Run(name+"/scores", func(b *testing.B) {
				qq, out, ids := qt.Query(emb.Row(0), nil), make([]float64, n), make([]int32, n)
				for i := range ids {
					ids[i] = int32(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qq.ScoreRows(ids, out)
				}
				reportRowsPerSec(b, n)
			})
			if name == "i8pq" {
				for _, batch := range []int{1, 3, 5, 8, 16} {
					b.Run(fmt.Sprintf("%s/scores-batch%d", name, batch), func(b *testing.B) { benchScoreBatches(b, qt, emb.Row(0), batch) })
				}
			}
			b.Run(name+"/scan+rerank", func(b *testing.B) { benchQuantSearch(b, emb, norms, qt, flatScan(norms, 1)) })
			b.Run(name+"/walk+rerank", func(b *testing.B) { benchQuantSearch(b, emb, norms, qt, ix.SearchQuant) })
		}
	})
}

// benchScoreBatches scores every row of qt once an op, batch rows a
// call, in a scattered order (row i*977 mod n for i = 0..n-1, 977
// prime to the shard's 2460 rows), as a walk gathers the neighbours it
// scores from all over the table.
func benchScoreBatches(b *testing.B, qt mat.Quantized, q []float64, batch int) {
	n := qt.NumRows()
	qq, out, ids := qt.Query(q, nil), make([]float64, n), make([]int32, n)
	for i := range ids {
		ids[i] = int32(i * 977 % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			qq.ScoreRows(ids[lo:hi], out[lo:hi])
		}
	}
	reportRowsPerSec(b, n)
}

// benchQuery keeps the compiler from discarding a prepared query.
var benchQuery mat.QuantQuery

const benchK, benchEf = 10, 64

func reportRowsPerSec(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func benchExactScan(b *testing.B, emb *mat.Dense, norms []float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := i % emb.Rows
		ExactTopK(emb, norms, emb.Row(v), norms[v], benchK, int32(v))
	}
	reportRowsPerSec(b, emb.Rows)
}

// beamSearch is what the two quantized candidate searches share:
// Index.SearchQuant's signature.
type beamSearch func(qt mat.Quantized, q []float64, qn float64, ef int, exclude int32) []Candidate

// flatScan is ScanQuant as a beamSearch.
func flatScan(norms []float64, workers int) beamSearch {
	return func(qt mat.Quantized, q []float64, qn float64, ef int, exclude int32) []Candidate {
		return ScanQuant(qt, norms, q, qn, ef, exclude, workers)
	}
}

// countedTable counts the rows its queries score.
type countedTable struct {
	mat.Quantized
	rows *int
}

func (t countedTable) Query(q []float64, s *mat.QueryScratch) mat.QuantQuery {
	return countedQuery{t.Quantized.Query(q, s), t.rows}
}

type countedQuery struct {
	mat.QuantQuery
	rows *int
}

func (q countedQuery) ScoreRows(ids []int32, out []float64) {
	*q.rows += len(ids)
	q.QuantQuery.ScoreRows(ids, out)
}

// benchQuantSearch times a quantized candidate search plus the exact
// rerank of its beam, then — outside the timed region, over 50 evenly
// spaced queries — reports recall@10 against the exact scanner and the
// rows the search scored per query.
func benchQuantSearch(b *testing.B, emb *mat.Dense, norms []float64, qt mat.Quantized, search beamSearch) {
	n := emb.Rows
	answer := func(qt mat.Quantized, v int) []Candidate {
		q, qn := emb.Row(v), norms[v]
		return RerankExact(emb, norms, q, qn, search(qt, q, qn, benchEf, int32(v)), benchK)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		answer(qt, i%n)
	}
	b.StopTimer()
	scored := 0
	counted := countedTable{qt, &scored}
	sum, queries := 0.0, 0
	for v := 0; v < n; v += n / 50 {
		exact := ExactTopK(emb, norms, emb.Row(v), norms[v], benchK, int32(v))
		want := make(map[int32]bool, len(exact))
		for _, c := range exact {
			want[c.ID] = true
		}
		hits := 0
		for _, c := range answer(counted, v) {
			if want[c.ID] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(exact))
		queries++
	}
	b.ReportMetric(sum/float64(queries), "recall@10")
	b.ReportMetric(float64(scored)/float64(queries), "rows_scored/op")
	b.ReportMetric(float64(qt.ResidentBytes()), "resident_bytes")
}
