package gsgcn

// This file is deliverable (d): a benchmark per table and figure of
// the paper's evaluation section, each printing the regenerated
// rows/series on its first iteration, plus ablation benches for the
// design choices called out in docs/ARCHITECTURE.md. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers will differ from the paper (different hardware,
// synthetic data, simulated cores — ExperimentNames lists the
// experiments, RunExperiment maps each to its driver, and the package
// map in docs/ARCHITECTURE.md says what internal/perf simulates); the
// shapes (who wins, how speedups trend with cores/depth) are the
// reproduction target.

import (
	"fmt"
	"os"
	"testing"

	"gsgcn/internal/partition"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// benchOptions sizes the experiments for a laptop-scale bench run.
func benchOptions() ExpOptions {
	o := DefaultOptions()
	o.Scale = 0.02
	o.Epochs = 8
	o.Hidden = 48
	return o
}

func printOnce(i int, s fmt.Stringer) {
	if i == 0 {
		fmt.Fprintln(os.Stdout, s.String())
	}
}

// BenchmarkTableI regenerates Table I (dataset statistics).
func BenchmarkTableI(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunTable1(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkFig2 regenerates Figure 2 (sequential time-accuracy,
// proposed vs GraphSAGE vs batched GCN) and the Section VI-B serial
// speedups.
func BenchmarkFig2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunFig2(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkFig3 regenerates Figure 3 (iteration / feature-propagation
// / weight-application scaling and the execution-time breakdown) for
// the paper's hidden dimensions 512 and 1024.
func BenchmarkFig3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunFig3(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkFig4 regenerates Figure 4 (sampling speedup vs p_inter and
// the lane/AVX gain).
func BenchmarkFig4(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunFig4(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkTableII regenerates Table II (speedup over the
// parallelized layer-sampling baseline across depths and cores).
func BenchmarkTableII(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkSamplerScalability regenerates the Theorem 1 validation
// (probe-cost model and scalability bound).
func BenchmarkSamplerScalability(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunTheorem1(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkPartitionAblation regenerates the Theorem 2 validation
// (feature-only partitioning as a 2-approximation) and measures 1-D
// vs 2-D partitioned propagation on a sampled subgraph.
func BenchmarkPartitionAblation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := RunTheorem2(o)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, r)
	}
}

// BenchmarkDashboardEta sweeps the Dashboard enlargement factor: a
// small eta saves memory but forces frequent cleanups; a large eta
// wastes probes. One subgraph sampled per iteration.
func BenchmarkDashboardEta(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, budget := trainParams(ds.G.NumVertices())
	for _, eta := range []float64{1.25, 1.5, 2, 3, 4} {
		b.Run(fmt.Sprintf("eta=%.2f", eta), func(b *testing.B) {
			fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: eta}
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				fr.SampleVertices(r)
			}
		})
	}
}

// BenchmarkFrontierVsNaive quantifies the Dashboard's advantage over
// the straightforward O(m) -per-pop Algorithm 2 implementation.
func BenchmarkFrontierVsNaive(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, budget := trainParams(ds.G.NumVertices())
	b.Run("dashboard", func(b *testing.B) {
		fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			fr.SampleVertices(r)
		}
	})
	b.Run("naive", func(b *testing.B) {
		fr := &sampler.NaiveFrontier{G: ds.G, M: m, N: budget}
		r := rng.New(1)
		for i := 0; i < b.N; i++ {
			fr.SampleVertices(r)
		}
	})
}

// BenchmarkPoolSchedule measures one Algorithm 5 pool refill at
// several p_inter values with real goroutines.
func BenchmarkPoolSchedule(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, budget := trainParams(ds.G.NumVertices())
	for _, pinter := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("pinter=%d", pinter), func(b *testing.B) {
			fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
			pool := sampler.NewPool(ds.G, fr, pinter, 1)
			for i := 0; i < b.N; i++ {
				for j := 0; j < pinter; j++ {
					pool.Next()
				}
			}
		})
	}
}

// BenchmarkPropagationPartitioning compares feature-only (P=1)
// against 2-D (graph x feature) partitioned propagation — the
// Theorem 2 design choice — on a frontier-sampled subgraph.
func BenchmarkPropagationPartitioning(b *testing.B) {
	ds, err := LoadPreset("reddit", 0.01, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, budget := trainParams(ds.G.NumVertices())
	fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
	sub := sampler.SampleSubgraph(ds.G, fr, rng.New(2))
	f := ds.FeatureDim()
	src := randomDense(rng.New(3), sub.N, f)
	dst := src.Clone()
	workers := perf.NumWorkers()
	b.Run("feature-only-P1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Propagate(dst, src, sub.CSR, partition.NormDst, 16, workers)
		}
	})
	b.Run("2D-P4xQ4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.Propagate2D(dst, src, sub.CSR, partition.NormDst, 4, 4, workers)
		}
	})
}

// BenchmarkTrainEpoch measures one end-to-end training epoch on the
// scaled PPI preset through the public API.
func BenchmarkTrainEpoch(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	model := NewModel(ds, Config{Layers: 2, Hidden: 64, Seed: 4})
	tr := NewTrainer(ds, model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Epoch()
	}
}

// BenchmarkTrainEpochWorkers benchmarks serial vs parallel training
// epochs side by side on the PPI preset. Every kernel and the sampler
// pool are worker-invariant, so all sub-benchmarks perform the exact
// same arithmetic — the ratio of their ns/op is the real wall-clock
// speedup of the goroutine-parallel engine (the measured counterpart
// of the paper's Fig. 3A). A developer number; the benchmark's traced
// run reports the same ratio as perf.speedup.
func BenchmarkTrainEpochWorkers(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if n := perf.NumWorkers(); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			model := NewModel(ds, Config{Layers: 2, Hidden: 64, Workers: w, PInter: 4, Seed: 4})
			tr := NewTrainer(ds, model)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Epoch()
			}
		})
	}
}

// BenchmarkFullGraphInference measures validation-time full-graph
// inference.
func BenchmarkFullGraphInference(b *testing.B) {
	ds, err := LoadPreset("ppi", 0.05, 0)
	if err != nil {
		b.Fatal(err)
	}
	model := NewModel(ds, Config{Layers: 2, Hidden: 64, Seed: 4})
	tr := NewTrainer(ds, model)
	tr.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Evaluate(ds.ValIdx)
	}
}
