package core

// End-to-end determinism suite for the parallel training engine
// (ISSUE 1): with a fixed seed, training at Workers=1 and Workers=8
// must produce bit-identical per-step loss traces — the composition of
// the pool's deterministic subgraph sequence, the worker-invariant
// sharded dense kernels, and the serial optimizer. Table-driven over
// the frontier and node2vec sampler families.

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"testing"

	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

func lossTrace(ds *datasets.Dataset, s func(*datasets.Dataset, Config) *Trainer, cfg Config, steps int) []float64 {
	tr := s(ds, cfg)
	out := make([]float64, steps)
	for i := range out {
		out[i] = tr.Step()
	}
	return out
}

func TestLossTraceIdenticalAcrossWorkers(t *testing.T) {
	ds := tinyDataset(t, false)
	makeTrainer := map[string]func(ds *datasets.Dataset, cfg Config) *Trainer{
		"frontier": func(ds *datasets.Dataset, cfg Config) *Trainer {
			return NewTrainer(ds, NewModel(ds, cfg))
		},
		"node2vec": func(ds *datasets.Dataset, cfg Config) *Trainer {
			s := &sampler.Node2VecWalk{G: ds.G, Walkers: 25, Depth: 7, P: 1, Q: 0.5}
			return NewTrainerWithSampler(ds, NewModel(ds, cfg), s)
		},
	}
	const steps = 10
	for name, mk := range makeTrainer {
		for _, dropRate := range []float64{0, 0.2} {
			t.Run(name, func(t *testing.T) {
				base := tinyConfig()
				base.PInter = 3
				base.DropRate = dropRate
				base.WeightDecay = 1e-4
				base.GradClip = 5

				serial := base
				serial.Workers = 1
				ref := lossTrace(ds, mk, serial, steps)

				parallel := base
				parallel.Workers = 8
				got := lossTrace(ds, mk, parallel, steps)

				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("drop=%.1f step %d: loss %v (Workers=1) != %v (Workers=8)",
							dropRate, i, ref[i], got[i])
					}
				}
				if ref[0] == 0 {
					t.Fatal("degenerate trace: first step loss is 0")
				}
			})
		}
	}
}

// TestQNeverReachesABit: the propagation chunk count only re-chunks
// columns, so the loss trace and the full-graph logits are the same
// bits under every Q — explicit counts and the solver's (Q = 0) — at
// one worker and two. The features (200) and the second layer's input
// (2 × 64) are wide enough to be cut.
func TestQNeverReachesABit(t *testing.T) {
	ds := datasets.Generate(datasets.Config{
		Name: "wide", Vertices: 400, TargetEdges: 4000,
		FeatureDim: 200, NumClasses: 5, Homophily: 0.85, NoiseStd: 0.4, Seed: 3,
	})
	run := func(q, workers int) ([]float64, *mat.Dense) {
		cfg := tinyConfig()
		cfg.Hidden = 64
		cfg.DropRate = 0.2
		cfg.Q, cfg.Workers = q, workers
		tr := NewTrainer(ds, NewModel(ds, cfg))
		losses := make([]float64, 8) // four epochs of two steps
		for i := range losses {
			losses[i] = tr.Step()
		}
		return losses, tr.Infer()
	}
	refLoss, refLogits := run(1, 1)
	for _, q := range []int{1, 2, 3, 13, 0} {
		for _, workers := range []int{1, 2} {
			loss, logits := run(q, workers)
			for i := range refLoss {
				if math.Float64bits(loss[i]) != math.Float64bits(refLoss[i]) {
					t.Fatalf("Q=%d workers=%d: step %d loss %v, want %v", q, workers, i, loss[i], refLoss[i])
				}
			}
			for i := range refLogits.Data {
				if math.Float64bits(logits.Data[i]) != math.Float64bits(refLogits.Data[i]) {
					t.Fatalf("Q=%d workers=%d: logit %d = %v, want %v", q, workers, i, logits.Data[i], refLogits.Data[i])
				}
			}
		}
	}
}

// TestRecordedStepIsTheStep: StepOn under perf.Record — every parallel
// region's chunks run one after another on the caller, each timed —
// gives the losses and weights, bit for bit, of the same steps
// dispatched to the pool at the same Workers, with dropout on.
func TestRecordedStepIsTheStep(t *testing.T) {
	ds := tinyDataset(t, false)
	cfg := tinyConfig()
	cfg.DropRate = 0.2
	cfg.Workers = 4
	fr := &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: 2}
	plain := NewTrainer(ds, NewModel(ds, cfg))
	recorded := NewTrainer(ds, NewModel(ds, cfg))
	regions := 0
	for i := 0; i < 4; i++ {
		sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(5, i))
		want := plain.StepOn(sub)
		var got float64
		regions += len(perf.Record(func() { got = recorded.StepOn(sub) }))
		if math.Float64bits(got) != math.Float64bits(want) || want == 0 {
			t.Fatalf("step %d: recorded loss %v, unrecorded %v", i, got, want)
		}
	}
	if regions == 0 {
		t.Fatal("the recorded steps ran no parallel region")
	}
	if got, want := weightCRC(recorded.Model), weightCRC(plain.Model); got != want {
		t.Errorf("weights after the recorded steps: CRC %#x, unrecorded %#x", got, want)
	}
}

// weightCRC is the CRC-64/ECMA of every parameter's Float64bits.
func weightCRC(m *Model) uint64 {
	tab := crc64.MakeTable(crc64.ECMA)
	var crc uint64
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			crc = crc64.Update(crc, tab, b[:])
		}
	}
	return crc
}

// TestPoolSequenceIdenticalAcrossWorkers verifies at the trainer level
// that the pool hands both configurations the same subgraph stream.
func TestPoolSequenceIdenticalAcrossWorkers(t *testing.T) {
	ds := tinyDataset(t, false)
	draw := func(workers int) [][]int32 {
		cfg := tinyConfig()
		cfg.PInter = 3
		cfg.Workers = workers
		tr := NewTrainer(ds, NewModel(ds, cfg))
		var out [][]int32
		for i := 0; i < 9; i++ {
			out = append(out, tr.Pool.Next().Orig)
		}
		return out
	}
	a, b := draw(1), draw(8)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("subgraph %d: sizes differ (%d vs %d)", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("subgraph %d: vertex %d differs", i, j)
			}
		}
	}
}
