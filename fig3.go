package gsgcn

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsgcn/internal/core"
	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// Fig3Point is one simulated-core-count measurement.
type Fig3Point struct {
	Cores         int
	IterSpeedup   float64 // Fig. 3A: whole-iteration speedup
	FeatSpeedup   float64 // Fig. 3B: feature-propagation speedup
	WeightSpeedup float64 // Fig. 3C: weight-application speedup
	// Breakdown is the share of iteration time spent in [sampling,
	// feature propagation, weight application, other] (Fig. 3D). Other
	// is the rest of the training step — gathers, concatenation, ReLU,
	// loss, optimizer — where this implementation departs from the
	// paper's three phases.
	Breakdown [4]float64
}

// Fig3Real is the training step without sampling (Trainer.StepOn) at
// Workers real goroutines: its measured speedup over one worker,
// beside the simulator's at as many cores.
type Fig3Real struct {
	Workers             int
	Measured, Simulated float64
}

// Fig3Curve is one (dataset, hidden-dimension) scaling series.
type Fig3Curve struct {
	Dataset string
	Hidden  int
	Points  []Fig3Point
	// Real covers every worker count from 1 to ExpOptions.Workers (0:
	// GOMAXPROCS), up to the largest simulated core count.
	Real []Fig3Real
}

// Fig3Result reproduces Figure 3: training-step scaling and its
// execution-time breakdown, for each hidden dimension.
type Fig3Result struct {
	Curves []Fig3Curve
	Cores  []int
}

// fig3Samples is how many times the scaling runs time a step (and each
// sampler instance); every chunk keeps its fastest time. At quick scale
// a chunk runs for microseconds, so one preempted by the host would on
// its own set the simulated critical path.
const fig3Samples = 3

// fig3Budget caps the subgraph size for the scaling runs; Fig. 3
// measures per-iteration kernel scaling, which is size-stationary, so
// a moderate subgraph keeps the sweep tractable while preserving the
// paper's matrix shapes (hidden 512/1024, real attribute widths).
const fig3Budget = 2000

// RunFig3 records one training step per (dataset, hidden dimension) at
// max(Cores) workers (see recordStep) and reports the simulated
// speedup at every requested core count, with the step's measured
// speedup on the host's own cores beside it.
func RunFig3(o ExpOptions) (*Fig3Result, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	res := &Fig3Result{Cores: o.Cores}
	maxP := maxInt(o.Cores)
	for _, name := range o.Datasets {
		ds, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		for _, hidden := range o.HiddenDims {
			curve := fig3Curve(ds, hidden, o, maxP)
			res.Curves = append(res.Curves, curve)
		}
	}
	return res, nil
}

func fig3Curve(ds *Dataset, hidden int, o ExpOptions, maxP int) Fig3Curve {
	prof := recordStep(ds, o, 2, hidden, maxP)
	curve := Fig3Curve{Dataset: ds.Name, Hidden: hidden}
	one := prof.at(1, o.Sim)
	for _, p := range o.Cores {
		at := prof.at(p, o.Sim)
		iter := sum(at[:]...)
		pt := Fig3Point{
			Cores:         p,
			IterSpeedup:   ratio(sum(one[:]...), iter),
			FeatSpeedup:   ratio(one[1], at[1]),
			WeightSpeedup: ratio(one[2], at[2]),
		}
		for i, d := range at {
			pt.Breakdown[i] = ratio(d, iter)
		}
		curve.Points = append(curve.Points, pt)
	}
	workers := o.Workers
	if workers <= 0 {
		workers = perf.NumWorkers()
	}
	serial := measureStep(ds, o, 2, hidden, 1)
	for w := 1; w <= min(workers, maxP); w++ {
		t := serial
		if w > 1 {
			t = measureStep(ds, o, 2, hidden, w)
		}
		at := prof.at(w, o.Sim)
		curve.Real = append(curve.Real, Fig3Real{
			Workers:   w,
			Measured:  ratio(serial, t),
			Simulated: ratio(sum(one[1:]...), sum(at[1:]...)),
		})
	}
	return curve
}

// stepProfile is a training step recorded for the simulator: the time
// of each of maxP sampler instances (Fig. 4A's inter-subgraph
// parallelism), and for feature propagation, weight application and
// the rest of the step ("other") the time spent outside any parallel
// region plus the chunk times of every region.
type stepProfile struct {
	sample []time.Duration
	phases [3]stepPhase
}

type stepPhase struct {
	serial  time.Duration
	regions [][]time.Duration
}

// stepPhases maps the trainer's Timer segments to phases; a region
// outside both is "other".
var stepPhases = map[string]int{"featprop": 0, "weight": 1}

// at returns the simulated [sampling, featprop, weight, other] times
// of one iteration at p cores: each phase's serial remainder plus
// GroupWall of each of its regions.
func (s *stepProfile) at(p int, cfg perf.SimConfig) [4]time.Duration {
	t := [4]time.Duration{samplePerIter(s.sample, p, cfg)}
	for i, ph := range s.phases {
		t[i+1] = max(ph.serial, 0)
		for _, r := range ph.regions {
			t[i+1] += perf.GroupWall(r, p, cfg).Wall
		}
	}
	return t
}

// recordStep steps one subgraph fig3Samples times under perf.Record at
// maxP workers, after a warm-up step, and keeps every chunk's and
// every serial remainder's fastest time. A phase is its Timer
// segment's time less its regions' chunks, plus those regions; other
// is the rest of the step. The recordings step the same subgraph at
// the same shapes, so their regions correspond one to one.
func recordStep(ds *Dataset, o ExpOptions, layers, hidden, maxP int) *stepProfile {
	tr, sub, fr := stepTrainer(ds, o, layers, hidden, maxP)
	var prof *stepProfile
	for s := 0; s < fig3Samples; s++ {
		tr.Timer.Reset()
		var step time.Duration
		regions := perf.Record(func() {
			start := time.Now()
			tr.StepOn(sub)
			step = time.Since(start)
		})
		cur := &stepProfile{}
		cur.phases[2].serial = step
		for seg, i := range stepPhases {
			cur.phases[i].serial = tr.Timer.Get(seg)
			cur.phases[2].serial -= cur.phases[i].serial
		}
		for _, r := range regions {
			i, ok := stepPhases[r.Segment]
			if !ok {
				i = 2
			}
			cur.phases[i].regions = append(cur.phases[i].regions, r.Chunks)
			cur.phases[i].serial -= sum(r.Chunks...)
		}
		if prof == nil {
			prof = cur
			continue
		}
		for i := range prof.phases {
			a, b := &prof.phases[i], cur.phases[i]
			a.serial = min(a.serial, b.serial)
			for j, r := range a.regions {
				for k := range r {
					r[k] = min(r[k], b.regions[j][k])
				}
			}
		}
	}
	prof.sample = fastestShardTimes(maxP, func(i int) {
		_ = sampler.SampleSubgraph(ds.G, fr, rng.NewStream(o.Seed, 1000+i))
	})
	return prof
}

// stepTrainer builds a scaling run's trainer at the given worker count
// — the Fig. 2 configuration, sized by stepSizes — with the one
// subgraph every scaling run steps, and warms it with a step (scratch
// buffers, Adam moments, first-touch faults). Stepping a subgraph of
// its own, the trainer never starts its sampler pool.
func stepTrainer(ds *Dataset, o ExpOptions, layers, hidden, workers int) (*core.Trainer, *Subgraph, *sampler.Frontier) {
	m, budget := stepSizes(ds.G.NumVertices(), o.Quick)
	fr := &sampler.Frontier{G: ds.G, M: m, N: budget, Eta: 2}
	sub := sampler.SampleSubgraph(ds.G, fr, rng.NewStream(o.Seed, 0xF163))
	tr := core.NewTrainer(ds, core.NewModel(ds, core.Config{
		Layers: layers, Hidden: hidden, LR: 0.01,
		FrontierM: m, Budget: budget, PInter: 1, Workers: workers, Seed: o.Seed,
	}))
	tr.StepOn(sub)
	return tr, sub, fr
}

// measureStep is the fastest of fig3Samples unrecorded StepOn calls at
// workers real goroutines.
func measureStep(ds *Dataset, o ExpOptions, layers, hidden, workers int) time.Duration {
	tr, sub, _ := stepTrainer(ds, o, layers, hidden, workers)
	best := time.Duration(math.MaxInt64)
	for s := 0; s < fig3Samples; s++ {
		start := time.Now()
		tr.StepOn(sub)
		best = min(best, time.Since(start))
	}
	return best
}

// fastestShardTimes is perf.SimShardTimes taken fig3Samples times,
// keeping each shard's fastest.
func fastestShardTimes(n int, shard func(i int)) []time.Duration {
	best := perf.SimShardTimes(n, shard)
	for s := 1; s < fig3Samples; s++ {
		for i, t := range perf.SimShardTimes(n, shard) {
			best[i] = min(best[i], t)
		}
	}
	return best
}

// samplePerIter returns the amortized per-iteration sampling wall
// time when p sampler instances refill the pool concurrently: the
// refill produces p subgraphs in max-instance time, one consumed per
// iteration.
func samplePerIter(times []time.Duration, p int, cfg perf.SimConfig) time.Duration {
	p = max(1, min(p, len(times)))
	return perf.GroupWall(times[:p], p, cfg).Wall / time.Duration(p)
}

func sum(ts ...time.Duration) time.Duration {
	var s time.Duration
	for _, t := range ts {
		s += t
	}
	return s
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func maxInt(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// String renders the four panels per hidden dimension, then the
// training step's measured speedup on real cores beside the simulated.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3: training scaling (simulated cores; A=iteration, B=feat-prop, C=weight-app speedup; D=breakdown)")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\n[%s hidden=%d]\n", c.Dataset, c.Hidden)
		fmt.Fprintf(&b, "  %6s %10s %10s %10s   %s\n", "cores", "A:iter", "B:feat", "C:weight", "D:breakdown sample/feat/weight/other")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %6d %9.2fx %9.2fx %9.2fx   %.2f / %.2f / %.2f / %.2f\n",
				p.Cores, p.IterSpeedup, p.FeatSpeedup, p.WeightSpeedup,
				p.Breakdown[0], p.Breakdown[1], p.Breakdown[2], p.Breakdown[3])
		}
		fmt.Fprint(&b, "  training step (no sampling) on real cores, measured (simulated):")
		for _, x := range c.Real {
			fmt.Fprintf(&b, "  %d: %.2fx (%.2fx)", x.Workers, x.Measured, x.Simulated)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
