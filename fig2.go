package gsgcn

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gsgcn/internal/baseline"
	"gsgcn/internal/core"
)

// Fig2Point is one (cumulative training time, validation F1) sample.
type Fig2Point struct {
	Seconds float64
	F1      float64
}

// Fig2Series is one method's time-accuracy curve.
type Fig2Series struct {
	Method string
	Points []Fig2Point
}

// Fig2Dataset holds one dataset's curves and the derived serial
// training-time speedup (paper Section VI-B: 1.9x / 7.8x / 4.7x /
// 2.1x on PPI / Reddit / Yelp / Amazon).
type Fig2Dataset struct {
	Dataset      string
	Series       []Fig2Series
	Threshold    float64 // best-baseline F1 minus 0.0025
	Speedup      float64 // baseline-to-threshold time / ours-to-threshold time
	PaperSpeedup float64
}

// Fig2Result reproduces Figure 2: sequential time-accuracy curves for
// the proposed graph-sampling GCN vs GraphSAGE-style layer sampling
// vs full-batch ("Batched") GCN.
type Fig2Result struct {
	Datasets []Fig2Dataset
	Epochs   int
	Hidden   int
}

var fig2PaperSpeedups = map[string]float64{
	"ppi": 1.9, "reddit": 7.8, "yelp": 4.7, "amazon": 2.1,
}

// RunFig2 trains all three methods sequentially (Workers = 1, as in
// the paper's single-thread comparison) and records time-accuracy
// curves.
func RunFig2(o ExpOptions) (*Fig2Result, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	res := &Fig2Result{Epochs: o.Epochs, Hidden: o.Hidden}
	for _, name := range o.Datasets {
		ds, err := cache.get(name)
		if err != nil {
			return nil, err
		}
		dr := Fig2Dataset{Dataset: name, PaperSpeedup: fig2PaperSpeedups[name]}

		// One learning rate per dataset, shared by all three methods
		// so the comparison isolates the batching policy. Multi-label
		// BCE over 100+ sparse classes needs a hotter rate to make
		// progress within the epoch budget.
		lr := 0.01
		if ds.MultiLabel {
			lr = 0.04
		}
		dr.Series = append(dr.Series, runProposedCurve(ds, o, lr))
		dr.Series = append(dr.Series, runSAGECurve(ds, o, lr))
		dr.Series = append(dr.Series, runFullBatchCurve(ds, o, lr))

		dr.Threshold, dr.Speedup = fig2Speedup(dr.Series)
		res.Datasets = append(res.Datasets, dr)
	}
	return res, nil
}

func runProposedCurve(ds *Dataset, o ExpOptions, lr float64) Fig2Series {
	m, budget := trainParams(ds.G.NumVertices())
	cfg := core.Config{
		Layers: 2, Hidden: o.Hidden, LR: lr,
		FrontierM: m, Budget: budget,
		PInter: 1, Workers: 1, Seed: o.Seed,
	}
	model := core.NewModel(ds, cfg)
	tr := core.NewTrainer(ds, model)
	s := Fig2Series{Method: "proposed"}
	var elapsed time.Duration
	for e := 0; e < o.Epochs; e++ {
		start := time.Now()
		tr.Epoch()
		elapsed += time.Since(start)
		s.Points = append(s.Points, Fig2Point{seconds(elapsed), tr.Evaluate(ds.ValIdx)})
	}
	return s
}

func runSAGECurve(ds *Dataset, o ExpOptions, lr float64) Fig2Series {
	cfg := baseline.SAGEConfig{
		Layers: 2, Hidden: o.Hidden, DLS: 10,
		Batch: 256, LR: lr, Seed: o.Seed, Workers: 1,
	}
	if cfg.Batch > len(ds.TrainIdx) {
		cfg.Batch = len(ds.TrainIdx)
	}
	s := baseline.NewSAGE(ds, cfg)
	series := Fig2Series{Method: "graphsage"}
	stepsPerEpoch := (len(ds.TrainIdx) + cfg.Batch - 1) / cfg.Batch
	var elapsed time.Duration
	for e := 0; e < o.Epochs; e++ {
		start := time.Now()
		for i := 0; i < stepsPerEpoch; i++ {
			s.Step()
		}
		elapsed += time.Since(start)
		series.Points = append(series.Points, Fig2Point{seconds(elapsed), s.Evaluate(ds.ValIdx)})
	}
	return series
}

func runFullBatchCurve(ds *Dataset, o ExpOptions, lr float64) Fig2Series {
	fb := baseline.NewFullBatch(ds, core.Config{
		Layers: 2, Hidden: o.Hidden, LR: lr, Workers: 1, Seed: o.Seed,
	})
	series := Fig2Series{Method: "batched-gcn"}
	var elapsed time.Duration
	for e := 0; e < o.Epochs; e++ {
		start := time.Now()
		fb.Step()
		elapsed += time.Since(start)
		series.Points = append(series.Points, Fig2Point{seconds(elapsed), fb.Evaluate(ds.ValIdx)})
	}
	return series
}

// fig2Speedup derives the paper's serial-speedup metric: let a0 be
// the highest F1 any baseline reaches; the threshold is a0 - 0.0025;
// the speedup is (earliest baseline time to threshold) / (earliest
// proposed time to threshold). Returns speedup 0 when the proposed
// method never reaches the threshold.
func fig2Speedup(series []Fig2Series) (threshold, speedup float64) {
	var a0 float64
	for _, s := range series {
		if s.Method == "proposed" {
			continue
		}
		for _, p := range s.Points {
			if p.F1 > a0 {
				a0 = p.F1
			}
		}
	}
	threshold = a0 - 0.0025
	timeTo := func(s Fig2Series) float64 {
		for _, p := range s.Points {
			if p.F1 >= threshold {
				return p.Seconds
			}
		}
		return math.Inf(1)
	}
	baselineBest := math.Inf(1)
	oursTime := math.Inf(1)
	for _, s := range series {
		t := timeTo(s)
		if s.Method == "proposed" {
			oursTime = t
		} else if t < baselineBest {
			baselineBest = t
		}
	}
	if math.IsInf(oursTime, 1) || math.IsInf(baselineBest, 1) {
		return threshold, 0
	}
	if oursTime <= 0 {
		oursTime = 1e-9
	}
	return threshold, baselineBest / oursTime
}

// String renders the curves and derived speedups.
func (r *Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: sequential time-accuracy (2-layer GCN, hidden=%d, %d epochs)\n", r.Hidden, r.Epochs)
	for _, d := range r.Datasets {
		fmt.Fprintf(&b, "\n[%s]  threshold=%.4f  serial speedup ours-vs-best-baseline=%.2fx (paper: %.1fx)\n",
			d.Dataset, d.Threshold, d.Speedup, d.PaperSpeedup)
		for _, s := range d.Series {
			fmt.Fprintf(&b, "  %-12s", s.Method)
			for _, p := range s.Points {
				fmt.Fprintf(&b, " (%.2fs, %.3f)", p.Seconds, p.F1)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}
