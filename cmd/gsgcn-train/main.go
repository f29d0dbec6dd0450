// Command gsgcn-train trains a graph-sampling GCN on a synthetic
// preset and reports per-epoch loss and validation F1, ending with
// test F1.
//
// Usage:
//
//	gsgcn-train -dataset ppi -scale 0.05 -layers 2 -hidden 128 -epochs 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gsgcn"
)

// run is the whole command: it parses args, writes the run's report to
// stdout, and flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gsgcn-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data    = fs.String("data", "", "train on a .gsg dataset file (overrides -dataset; pair with gsgcn-serve -data)")
		dataset = fs.String("dataset", "ppi", "preset: ppi|reddit|yelp|amazon")
		scale   = fs.Float64("scale", 0.05, "dataset scale relative to Table I")
		layers  = fs.Int("layers", 2, "GCN depth")
		hidden  = fs.Int("hidden", 128, "hidden dimension")
		epochs  = fs.Int("epochs", 10, "training epochs")
		lr      = fs.Float64("lr", 0.01, "Adam learning rate")
		m       = fs.Int("frontier", 0, "frontier size m (0 = auto)")
		budget  = fs.Int("budget", 0, "subgraph vertex budget n (0 = auto)")
		degCap  = fs.Int("degcap", 0, "Dashboard degree cap (0 = uncapped; paper uses 30 for amazon)")
		workers = fs.Int("workers", 0, "real goroutines for sampling and dense kernels (0 = GOMAXPROCS; the loss trace is identical at any setting)")
		pinter  = fs.Int("pinter", 0, "sampler instances per pool wave, p_inter (0 = GOMAXPROCS)")
		seed    = fs.Uint64("seed", 1, "seed")
		sampler = fs.String("sampler", "frontier", "sampler: frontier|random-node|random-edge|random-walk|forest-fire")
		save    = fs.String("save", "", "write model checkpoint to this path after training")
		load    = fs.String("load", "", "restore model checkpoint from this path before training")
		metrics = fs.String("metrics-out", "", "dump training metrics (epoch wall time, loss, F1) to this file in Prometheus text format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		ds  *gsgcn.Dataset
		err error
	)
	if *data != "" {
		ds, err = gsgcn.ReadDataset(*data)
	} else {
		ds, err = gsgcn.LoadPreset(*dataset, *scale, *seed)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: |V|=%d |E|=%d attrs=%d classes=%d multi=%v\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), ds.FeatureDim(), ds.NumClasses, ds.MultiLabel)

	cfg := gsgcn.Config{
		Layers: *layers, Hidden: *hidden, LR: *lr,
		FrontierM: *m, Budget: *budget, DegCap: *degCap,
		Workers: *workers, PInter: *pinter, Seed: *seed,
	}
	model := gsgcn.NewModel(ds, cfg)
	fmt.Fprintln(stdout, model)
	if *load != "" {
		if err := model.LoadFile(*load); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "restored checkpoint", *load)
	}

	var tr *gsgcn.Trainer
	if *sampler == "frontier" {
		tr = gsgcn.NewTrainer(ds, model)
	} else {
		fam := gsgcn.Samplers(ds.G, model.Config().Budget)
		s, ok := fam[*sampler]
		if !ok {
			return fmt.Errorf("unknown sampler %q", *sampler)
		}
		tr = gsgcn.NewTrainerWithSampler(ds, model, s)
	}

	// The same metrics core that backs /metrics in gsgcn-serve records
	// the training run; -metrics-out dumps it in the same text format,
	// so one toolchain parses both. Observation only — the loss trace
	// is bit-identical with or without it.
	mreg := gsgcn.NewMetricsRegistry()
	labels := map[string]string{"dataset": ds.Name}
	var (
		epochSecs = mreg.Histogram("gsgcn_train_epoch_seconds",
			"Wall time per training epoch.", labels, gsgcn.DurationBuckets)
		epochsRun = mreg.Counter("gsgcn_train_epochs_total",
			"Training epochs completed.", labels)
		lastLoss = mreg.Gauge("gsgcn_train_loss",
			"Training loss after the most recent epoch.", labels)
		lastF1 = mreg.Gauge("gsgcn_train_val_f1",
			"Validation micro-F1 after the most recent epoch.", labels)
	)

	start := time.Now()
	for e := 1; e <= *epochs; e++ {
		epochStart := time.Now()
		loss := tr.Epoch()
		epochSecs.Observe(time.Since(epochStart).Seconds())
		epochsRun.Inc()
		f1 := tr.Evaluate(ds.ValIdx)
		lastLoss.Set(loss)
		lastF1.Set(f1)
		fmt.Fprintf(stdout, "epoch %3d  loss %.4f  val-F1 %.4f  elapsed %.1fs\n",
			e, loss, f1, time.Since(start).Seconds())
	}
	fmt.Fprintf(stdout, "test-F1 %.4f\n", tr.Evaluate(ds.TestIdx))
	if *metrics != "" {
		if err := writeMetrics(*metrics, mreg); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote metrics", *metrics)
	}
	seg := tr.Timer.Segments()
	fmt.Fprintf(stdout, "time breakdown: sampling %.2fs  featprop %.2fs  weight %.2fs\n",
		seg["sampling"].Seconds(), seg["featprop"].Seconds(), seg["weight"].Seconds())
	if *save != "" {
		// Tag the checkpoint with the optimizer step count so serving
		// processes can report which weights generation they answer
		// from.
		model.ModelVersion = uint64(tr.Steps())
		if err := model.SaveFile(*save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved checkpoint %s (model_version %d)\n", *save, model.ModelVersion)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "gsgcn-train:", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the registry in Prometheus text format.
func writeMetrics(path string, reg *gsgcn.MetricsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
