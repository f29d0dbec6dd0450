package gsgcn

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// Theorem1Result validates the sampler cost model of Theorem 1
// against measured Dashboard statistics: the expected probes per pop
// (the COSTrand term) and the guaranteed-scalability bound
// p <= eps*d*(4 + 3/(eta-1)) - eta.
type Theorem1Result struct {
	Dataset       string
	AvgDegree     float64
	Etas          []float64
	ProbeRate     []float64 // measured probes per pop at each eta
	PredictedRate []float64 // model: used/valid ≈ eta
	BoundP        []float64 // Theorem 1 max p at eps = 0.5
	Cleanups      []int
}

// RunTheorem1 samples with several enlargement factors and compares
// measured probe rates and cleanup counts with the analysis.
func RunTheorem1(o ExpOptions) (*Theorem1Result, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	ds, err := cache.get(o.Datasets[0])
	if err != nil {
		return nil, err
	}
	m, budget := trainParams(ds, o)
	res := &Theorem1Result{
		Dataset:   ds.Name,
		AvgDegree: ds.G.AvgDegree(),
		Etas:      []float64{1.25, 1.5, 2, 3, 4},
	}
	for i, eta := range res.Etas {
		fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: eta}
		_, stats := fr.SampleVerticesStats(rng.NewStream(o.Seed, 7000+i))
		rate := 0.0
		if stats.Pops > 0 {
			rate = float64(stats.Probes) / float64(stats.Pops)
		}
		res.ProbeRate = append(res.ProbeRate, rate)
		res.PredictedRate = append(res.PredictedRate, eta)
		res.BoundP = append(res.BoundP, sampler.TheoreticalSpeedupBound(0.5, res.AvgDegree, eta))
		res.Cleanups = append(res.Cleanups, stats.Cleanups)
	}
	return res, nil
}

// String renders the comparison.
func (r *Theorem1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 1 validation (%s, avg degree %.1f): probe cost and scalability bound\n", r.Dataset, r.AvgDegree)
	fmt.Fprintf(&b, "  %6s %14s %15s %14s %10s\n", "eta", "probes/pop", "model(≈eta)", "bound p(ε=.5)", "cleanups")
	for i, eta := range r.Etas {
		fmt.Fprintf(&b, "  %6.2f %14.2f %15.2f %14.1f %10d\n",
			eta, r.ProbeRate[i], r.PredictedRate[i], r.BoundP[i], r.Cleanups[i])
	}
	return b.String()
}

// Theorem2Result validates the feature-partitioning analysis: the
// communication volume of the feature-only (P=1) schedule against the
// exhaustive optimum and the 8nf lower bound, and the paper's Q beside
// the one the trainer runs (partition.Chunks), each with its measured
// propagation time on the same sampled subgraph.
type Theorem2Result struct {
	Dataset     string
	N           int
	AvgDeg      float64
	F           int
	VolumeFOnly float64
	VolumeBest  float64
	BestP       int
	BestQ       int
	LowerBound  float64
	ApproxRatio float64
	Feasible    bool
	PaperQ      int     // Theorem 2's closed form at S_cache = 256 KB
	Q           int     // the count the trainer executes
	PaperMS     float64 // Propagate at PaperQ, one core, fastest of theorem2Runs
	QMS         float64 // Propagate at Q, the same way
}

// theorem2Runs is how many times RunTheorem2 times each Q, alternating.
const theorem2Runs = 9

// RunTheorem2 evaluates the communication model on one sampled
// subgraph per the paper's typical parameters.
func RunTheorem2(o ExpOptions) (*Theorem2Result, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	ds, err := cache.get(o.Datasets[0])
	if err != nil {
		return nil, err
	}
	m, budget := trainParams(ds, o)
	fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
	sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(o.Seed, 0x7E02))
	f := ds.FeatureDim()
	cm := partition.CommModel{
		N: sub.N, AvgDeg: sub.AvgDegree(), F: f,
		Cores: maxInt(o.Cores), CacheBytes: 256 << 10,
	}
	bestP, bestQ, best := cm.BestVolume(sub.CSR, 16)
	res := &Theorem2Result{
		Dataset:     ds.Name,
		N:           sub.N,
		AvgDeg:      sub.AvgDegree(),
		F:           f,
		VolumeFOnly: cm.Volume(1, cm.OptimalQ(), 1),
		VolumeBest:  best,
		BestP:       bestP,
		BestQ:       bestQ,
		LowerBound:  cm.LowerBound(),
		ApproxRatio: cm.ApproxRatio(),
		Feasible:    cm.FeasibleTheorem2(),
		PaperQ:      cm.OptimalQ(),
		Q:           partition.Chunks(sub.N, sub.AvgDegree(), f),
	}
	src, dst := randomDense(rngFor(o.Seed), sub.N, f), mat.New(sub.N, f)
	propagateMS := func(q int) float64 {
		t0 := time.Now()
		partition.Propagate(dst, src, sub.CSR, partition.NormDst, q, 1)
		return float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	res.PaperMS, res.QMS = math.Inf(1), math.Inf(1)
	for i := 0; i < theorem2Runs; i++ {
		res.PaperMS = min(res.PaperMS, propagateMS(res.PaperQ))
		res.QMS = min(res.QMS, propagateMS(res.Q))
	}
	return res, nil
}

// String renders the analysis.
func (r *Theorem2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 2 validation (%s subgraph: n=%d, d=%.1f, f=%d)\n", r.Dataset, r.N, r.AvgDeg, r.F)
	fmt.Fprintf(&b, "  lower bound 8nf            : %.3e bytes\n", r.LowerBound)
	fmt.Fprintf(&b, "  feature-only (P=1) volume  : %.3e bytes (ratio %.3f, feasible=%v)\n", r.VolumeFOnly, r.ApproxRatio, r.Feasible)
	fmt.Fprintf(&b, "  exhaustive best (P=%d,Q=%d) : %.3e bytes\n", r.BestP, r.BestQ, r.VolumeBest)
	if r.VolumeBest > 0 {
		fmt.Fprintf(&b, "  feature-only / best        : %.3f (Theorem 2 guarantees <= 2)\n", r.VolumeFOnly/r.VolumeBest)
	}
	fmt.Fprintf(&b, "  Propagate, one core        : paper's Q=%d %.3f ms | executed Q=%d %.3f ms (partition.Chunks)\n",
		r.PaperQ, r.PaperMS, r.Q, r.QMS)
	return b.String()
}
