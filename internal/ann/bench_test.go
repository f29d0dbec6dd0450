package ann

import (
	"testing"

	"gsgcn/internal/mat"
)

// BenchmarkAnnScanDtype prices one ANN candidate scan per resident
// representation on a Table-I-shaped table: f64 is the exact flat
// scan (the no-index baseline the quantized paths substitute), f32 and
// i8pq run the quantized scan plus the exact rerank of the ef-wide
// beam — the full work the serving layer does per query at that dtype.
// Each quantized case reports its recall@10 against the exact scanner
// so the speedup is never read without its accuracy.
//
// The shard2460x256 group is the shape that is served — one shard of
// the benchmark's serve_fleet workload, scanned on one core — and the
// go test counterpart of serve.engine_topk_ann_i8pq_us: at dim 256 the
// ADC table is 128 x 256 entries (256 KB, out of L1), which the
// 8192 x 32 case (M 16, a 32 KB table) hides. It prices the two halves
// of a quantized scan apart (query: the per-query table or vector;
// scores: every row scored once) and then the whole.
func BenchmarkAnnScanDtype(b *testing.B) {
	emb, norms := randTable(8192, 32, 16, 5)
	b.Run("f64", func(b *testing.B) { benchExactScan(b, emb, norms) })
	for name, qt := range quantizers(emb) {
		qt := qt
		b.Run(name, func(b *testing.B) { benchQuantScan(b, emb, norms, qt, 4) })
	}

	b.Run("shard2460x256", func(b *testing.B) {
		emb, norms := randTable(2460, 256, 16, 5)
		n := emb.Rows
		b.Run("f64/scan+rerank", func(b *testing.B) { benchExactScan(b, emb, norms) })
		qts := quantizers(emb)
		for _, name := range []string{"f32", "i8pq"} {
			qt := qts[name]
			b.Run(name+"/query", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchQuery = qt.Query(emb.Row(i % n))
				}
			})
			b.Run(name+"/scores", func(b *testing.B) {
				qq, out := qt.Query(emb.Row(0)), make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qq.Scores(0, n, out)
				}
				reportRowsPerSec(b, n)
			})
			b.Run(name+"/scan+rerank", func(b *testing.B) { benchQuantScan(b, emb, norms, qt, 1) })
		}
	})
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

// benchQuantScan times the quantized scan plus the exact rerank of its
// beam, then reports recall@10 against the exact scanner over 50 evenly
// spaced queries.
func benchQuantScan(b *testing.B, emb *mat.Dense, norms []float64, qt mat.Quantized, workers int) {
	n := emb.Rows
	answer := func(v int) []Candidate {
		q, qn := emb.Row(v), norms[v]
		beam := ScanQuant(qt, norms, q, qn, benchEf, int32(v), workers)
		return RerankExact(emb, norms, q, qn, beam, benchK)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		answer(i % n)
	}
	reportRowsPerSec(b, n)
	b.StopTimer()
	sum, queries := 0.0, 0
	for v := 0; v < n; v += n / 50 {
		exact := ExactTopK(emb, norms, emb.Row(v), norms[v], benchK, int32(v))
		want := make(map[int32]bool, len(exact))
		for _, c := range exact {
			want[c.ID] = true
		}
		hits := 0
		for _, c := range answer(v) {
			if want[c.ID] {
				hits++
			}
		}
		sum += float64(hits) / float64(len(exact))
		queries++
	}
	b.ReportMetric(sum/float64(queries), "recall@10")
	b.ReportMetric(float64(qt.ResidentBytes()), "resident_bytes")
}
