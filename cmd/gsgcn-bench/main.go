// Command gsgcn-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	gsgcn-bench -exp fig2 -scale 0.05 -epochs 8
//	gsgcn-bench -exp all
//
// Each experiment prints the rows/series of the corresponding table
// or figure: gsgcn.ExperimentNames lists them and gsgcn.RunExperiment
// maps each name to its driver (table1.go, fig2.go, ...). The scaling
// figures fold a recorded training step onto simulated cores
// (internal/perf, in the package map of docs/ARCHITECTURE.md), and
// fig3 prints the real step's measured speedup beside the simulated
// one at every worker count up to -workers. -quick picks the
// test-sized configuration; flags given with it override its settings.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gsgcn"
)

// run is the whole command: it parses args, writes the report to
// stdout and flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gsgcn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(gsgcn.ExperimentNames(), "|"))
		scale    = fs.Float64("scale", 0.05, "dataset scale relative to the paper's Table I sizes")
		epochs   = fs.Int("epochs", 8, "training epochs for Fig. 2")
		hidden   = fs.Int("hidden", 64, "hidden dimension for training experiments")
		datasets = fs.String("datasets", "", "comma-separated preset subset (default: all four)")
		seed     = fs.Uint64("seed", 1, "experiment seed")
		workers  = fs.Int("workers", 0, "real goroutines: the samplers ablation trains on this many, and fig3 measures the real training step at every count up to it beside the simulated speedup (fig2 trains on one by design). 0 = GOMAXPROCS; results are identical at any setting")
		quick    = fs.Bool("quick", false, "tiny smoke-test configuration; flags given with it override its settings")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := gsgcn.DefaultOptions()
	if *quick {
		o = gsgcn.QuickOptions()
	}
	// Only the flags given override the configuration: a flag's default
	// would undo -quick's.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			o.Scale = *scale
		case "epochs":
			o.Epochs = *epochs
		case "hidden":
			o.Hidden = *hidden
		case "seed":
			o.Seed = *seed
		case "workers":
			o.Workers = *workers
		}
	})
	if *datasets != "" {
		o.Datasets = strings.Split(*datasets, ",")
	}

	fmt.Fprintln(stdout, gsgcn.About())
	return gsgcn.RunExperiment(*exp, o, stdout)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "gsgcn-bench:", err)
		os.Exit(1)
	}
}
