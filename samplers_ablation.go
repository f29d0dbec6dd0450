package gsgcn

import (
	"fmt"
	"strings"

	"gsgcn/internal/core"
)

// SamplerAblationRow reports one sampling algorithm's behaviour: the
// connectivity its subgraphs preserve and the accuracy a GCN trained
// on them reaches. This implements the paper's stated future work
// ("evaluating impact on accuracy using various sampling
// algorithms", Section VII) and validates the Section III-C argument
// that connectivity-preserving samplers yield accurate models.
type SamplerAblationRow struct {
	Sampler  string
	Subgraph int     // vertices in one sampled subgraph
	LCCFrac  float64 // largest-connected-component fraction
	ValF1    float64 // validation micro-F1 after Epochs epochs
}

// SamplerAblationResult is the sampler-family comparison on one
// dataset.
type SamplerAblationResult struct {
	Dataset string
	Epochs  int
	Rows    []SamplerAblationRow
}

// RunSamplerAblation trains one model per sampling algorithm on the
// first configured dataset.
func RunSamplerAblation(o ExpOptions) (*SamplerAblationResult, error) {
	o = o.normalized()
	cache := newDatasetCache(o)
	ds, err := cache.get(o.Datasets[0])
	if err != nil {
		return nil, err
	}
	m, budget := trainParams(ds.G.NumVertices())
	lr := 0.01
	if ds.MultiLabel {
		lr = 0.04
	}
	res := &SamplerAblationResult{Dataset: ds.Name, Epochs: o.Epochs}
	family := Samplers(ds.G, budget)
	for _, name := range sortedKeys(family) {
		s := family[name]
		sub := Sample(ds.G, s, o.Seed+1)
		model := core.NewModel(ds, core.Config{
			Layers: 2, Hidden: o.Hidden, LR: lr,
			FrontierM: m, Budget: budget, Workers: o.Workers, Seed: o.Seed,
		})
		tr := core.NewTrainerWithSampler(ds, model, s)
		for e := 0; e < o.Epochs; e++ {
			tr.Epoch()
		}
		res.Rows = append(res.Rows, SamplerAblationRow{
			Sampler:  name,
			Subgraph: sub.N,
			LCCFrac:  sub.LargestComponentFraction(),
			ValF1:    tr.Evaluate(ds.ValIdx),
		})
	}
	return res, nil
}

// String renders the comparison.
func (r *SamplerAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampler ablation (%s, %d epochs): connectivity preservation vs accuracy\n", r.Dataset, r.Epochs)
	fmt.Fprintf(&b, "  %-14s %10s %10s %10s\n", "sampler", "subgraph", "LCC-frac", "val-F1")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %10d %10.3f %10.4f\n", row.Sampler, row.Subgraph, row.LCCFrac, row.ValF1)
	}
	return b.String()
}
