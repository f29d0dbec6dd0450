package gsgcn

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// Fig4ASeries is one dataset's sampling-speedup curve over p_inter
// (inter-subgraph parallelism), with p_intra fixed at the AVX lane
// width.
type Fig4ASeries struct {
	Dataset  string
	PInter   []int
	Speedups []float64
}

// Fig4BSeries is one dataset's lane-parallel ("performance gain by
// AVX") gain at each p_inter.
type Fig4BSeries struct {
	Dataset string
	PInter  []int
	Gains   []float64
}

// Fig4Result reproduces Figure 4: (A) frontier-sampling speedup from
// inter-subgraph parallelism, including the NUMA bend past one
// socket; (B) the gain from intra-sampler lane parallelism (AVX on
// the paper's platform, 8 lanes).
type Fig4Result struct {
	A      []Fig4ASeries
	B      []Fig4BSeries
	PIntra int
}

// RunFig4 measures per-instance sampling times once at the largest
// p_inter and folds them into speedups for every requested point; the
// lane gain is derived from the Dashboard operation statistics (see
// sampler.Stats.LaneSpeedup).
func RunFig4(o ExpOptions) (*Fig4Result, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	const pintra = 8 // AVX2 lanes on the paper's platform
	res := &Fig4Result{PIntra: pintra}
	maxP := maxInt(o.Cores)
	for _, name := range o.Datasets {
		ds, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		m, budget := stepSizes(ds.G.NumVertices(), o.Quick)
		fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}

		// Panel A: measure maxP independent instances once.
		times := perf.SimShardTimes(maxP, func(i int) {
			r := rng.NewStream(o.Seed, 4000+i)
			_ = sampler.SampleSubgraph(ds.G, fr, r)
		})
		a := Fig4ASeries{Dataset: name}
		for _, p := range o.Cores {
			pp := min(p, len(times))
			a.PInter = append(a.PInter, p)
			a.Speedups = append(a.Speedups, perf.GroupWall(times[:pp], pp, o.Sim).Speedup())
		}
		res.A = append(res.A, a)

		// Panel B: lane gain from Dashboard operation statistics.
		// Scalar cost: one unit per probe plus one per entry write or
		// invalidation (the paper assumes COSTrand = COSTmem).
		// Vectorized cost: probe rounds shrink to the Theorem 1
		// expectation 1/(1-(1-1/eta)^lanes); block memory operations
		// shrink to ceil(len/lanes) rounds.
		b := Fig4BSeries{Dataset: name}
		for i, p := range o.Cores {
			r := rng.NewStream(o.Seed, 5000+i)
			_, stats := fr.SampleVerticesStats(r)
			scalar := float64(stats.Probes) + float64(stats.LaneRounds(1))
			eta := 2.0
			probeRoundsVec := float64(stats.Pops) / (1 - math.Pow(1-1/eta, float64(pintra)))
			vec := probeRoundsVec + float64(stats.LaneRounds(pintra))
			b.PInter = append(b.PInter, p)
			if vec > 0 {
				b.Gains = append(b.Gains, scalar/vec)
			} else {
				b.Gains = append(b.Gains, 1)
			}
		}
		res.B = append(res.B, b)
	}
	return res, nil
}

// MeasureSamplerComparison times the Dashboard sampler against the
// naive O(m) -per-pop Algorithm 2 implementation (the Section IV-A
// motivation for the Dashboard data structure) and returns
// (dashboard, naive) durations for one subgraph.
func MeasureSamplerComparison(ds *Dataset, seed uint64) (dashboard, naive time.Duration) {
	m, budget := trainParams(ds.G.NumVertices())
	fast := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
	slow := &sampler.NaiveFrontier{G: ds.G, M: m, N: budget}
	start := time.Now()
	fast.SampleVertices(rng.New(seed))
	dashboard = time.Since(start)
	start = time.Now()
	slow.SampleVertices(rng.New(seed))
	naive = time.Since(start)
	return dashboard, naive
}

// String renders both panels.
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4A: sampling speedup vs p_inter (p_intra=%d)\n", r.PIntra)
	for _, s := range r.A {
		fmt.Fprintf(&b, "  %-8s", s.Dataset)
		for i, p := range s.PInter {
			fmt.Fprintf(&b, "  p=%d: %.2fx", p, s.Speedups[i])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "Figure 4B: performance gain by %d-lane (AVX) intra-sampler parallelism\n", r.PIntra)
	for _, s := range r.B {
		fmt.Fprintf(&b, "  %-8s", s.Dataset)
		for i, p := range s.PInter {
			fmt.Fprintf(&b, "  p=%d: %.2fx", p, s.Gains[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
