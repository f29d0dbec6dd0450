package gsgcn

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gsgcn/internal/perf"
	"gsgcn/internal/rng"
)

// ExpOptions controls the experiment drivers that regenerate the
// paper's tables and figures. The defaults run every experiment at a
// reduced dataset scale so the full suite completes on a laptop; set
// Scale to 1 (and accept hours of runtime plus tens of GB of memory)
// to run at the paper's full Table I sizes.
type ExpOptions struct {
	// Scale multiplies the Table I vertex/edge budgets.
	Scale float64
	// Datasets restricts which presets run (default: all four).
	Datasets []string
	// Cores is the simulated-core sweep of the scaling figures.
	Cores []int
	// HiddenDims is Fig. 3's hidden-dimension sweep (paper: 512, 1024).
	HiddenDims []int
	// Epochs bounds Fig. 2 training.
	Epochs int
	// Hidden is the hidden dimension for training experiments (Fig. 2).
	Hidden int
	// Sim configures the simulated multicore executor.
	Sim perf.SimConfig
	// Workers is the real goroutine budget (0 = GOMAXPROCS): the
	// samplers ablation trains on it, and Fig. 3 measures the real
	// training step at every worker count up to it, beside the
	// simulated speedup at as many cores. The scaling figures sweep
	// *simulated* cores via Cores. Every kernel is worker-invariant, so
	// results are identical at any setting — only speed changes.
	Workers int
	// Seed makes the whole suite reproducible.
	Seed uint64
	// Quick shrinks everything further for unit tests.
	Quick bool
}

// DefaultOptions returns the bench-sized configuration.
func DefaultOptions() ExpOptions {
	return ExpOptions{
		Scale:      0.05,
		Datasets:   PresetNames(),
		Cores:      []int{1, 5, 10, 20, 40},
		HiddenDims: []int{512, 1024},
		Epochs:     8,
		Hidden:     64,
		Sim:        perf.DefaultSim,
		Seed:       1,
	}
}

// quickOptions returns the test-sized configuration.
func quickOptions() ExpOptions {
	o := DefaultOptions()
	o.Scale = 0.004
	o.Datasets = []string{"ppi"}
	o.Cores = []int{1, 4}
	o.HiddenDims = []int{32}
	o.Epochs = 2
	o.Hidden = 16
	o.Quick = true
	return o
}

// QuickOptions exposes the test-sized configuration for examples and
// smoke runs.
func QuickOptions() ExpOptions { return quickOptions() }

func (o ExpOptions) normalized() ExpOptions {
	d := DefaultOptions()
	if o.Scale == 0 {
		o.Scale = d.Scale
	}
	if len(o.Datasets) == 0 {
		o.Datasets = d.Datasets
	}
	if len(o.Cores) == 0 {
		o.Cores = d.Cores
	}
	if len(o.HiddenDims) == 0 {
		o.HiddenDims = d.HiddenDims
	}
	if o.Epochs == 0 {
		o.Epochs = d.Epochs
	}
	if o.Hidden == 0 {
		o.Hidden = d.Hidden
	}
	if o.Sim.BarrierNS == 0 && o.Sim.SocketCores == 0 {
		o.Sim = d.Sim
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// loadDataset memoizes dataset generation per (name, scale, seed)
// within one experiment run.
type datasetCache struct {
	opts ExpOptions
	m    map[string]*Dataset
}

func newDatasetCache(o ExpOptions) *datasetCache {
	return &datasetCache{opts: o, m: map[string]*Dataset{}}
}

func (c *datasetCache) get(name string) (*Dataset, error) {
	if d, ok := c.m[name]; ok {
		return d, nil
	}
	d, err := LoadPreset(name, c.opts.Scale, c.opts.Seed)
	if err != nil {
		return nil, err
	}
	c.m[name] = d
	return d, nil
}

// stepSizes is trainParams for the scaling runs (Figs. 3-4, Table II)
// on a graph of v vertices: the budget capped at fig3Budget (400 under
// Quick), the frontier at a quarter of the budget.
func stepSizes(v int, quick bool) (frontierM, budget int) {
	frontierM, budget = trainParams(v)
	if quick {
		budget = min(budget, 400)
	}
	budget = min(budget, fig3Budget)
	return min(frontierM, budget/4), budget
}

// epochSteps is how many scaling-run steps make an epoch on a graph of
// v vertices: |V| over the budget those steps actually sample.
func epochSteps(v int, quick bool) float64 {
	_, budget := stepSizes(v, quick)
	return max(1, float64(v)/float64(budget))
}

// trainParams derives sampler sizes proportional to the (scaled)
// graph of v vertices so experiments behave uniformly across presets.
func trainParams(v int) (frontierM, budget int) {
	frontierM = v / 50
	if frontierM < 25 {
		frontierM = 25
	}
	if frontierM > 1000 {
		frontierM = 1000 // the paper's m
	}
	budget = v / 8
	if budget < 8*frontierM {
		budget = 8 * frontierM
	}
	if budget > v {
		budget = v
	}
	return
}

// RunExperiment dispatches an experiment by name ("table1", "fig2",
// "fig3", "fig4", "table2", "theorem1", "theorem2", "all") and writes
// its report to w.
func RunExperiment(name string, o ExpOptions, w io.Writer) error {
	o = o.normalized()
	switch strings.ToLower(name) {
	case "table1":
		r, err := RunTable1(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "fig2":
		r, err := RunFig2(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "fig3":
		r, err := RunFig3(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "fig4":
		r, err := RunFig4(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "table2":
		r, err := RunTable2(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "theorem1":
		r, err := RunTheorem1(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "theorem2":
		r, err := RunTheorem2(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "samplers":
		r, err := RunSamplerAblation(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, r.String())
	case "all":
		for _, e := range ExperimentNames() {
			if e == "all" {
				continue
			}
			fmt.Fprintf(w, "=== %s ===\n", e)
			if err := RunExperiment(e, o, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("gsgcn: unknown experiment %q (want %s)",
			name, strings.Join(ExperimentNames(), "|"))
	}
	return nil
}

// ExperimentNames lists the runnable experiments.
func ExperimentNames() []string {
	return []string{"table1", "fig2", "fig3", "fig4", "table2", "theorem1", "theorem2", "samplers", "all"}
}

// rngFor builds a deterministic RNG from a seed.
func rngFor(seed uint64) *rng.RNG { return rng.New(seed) }

// seconds formats a duration as fractional seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
