// Command gsgcn-datagen generates a synthetic dataset preset and
// writes it to disk in a simple text container (one file with graph,
// features, labels and splits), for inspection or consumption by
// external tools.
//
// Usage:
//
//	gsgcn-datagen -dataset reddit -scale 0.01 -out reddit.gsg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gsgcn"
)

// run is the whole command: it parses args, writes the statistics
// and the path written to stdout, and flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gsgcn-datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "ppi", "preset: ppi|reddit|yelp|amazon")
		scale   = fs.Float64("scale", 0.01, "dataset scale relative to Table I")
		out     = fs.String("out", "", "output path (default <dataset>.gsg)")
		seed    = fs.Uint64("seed", 1, "seed")
		statsOn = fs.Bool("stats", true, "print dataset statistics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := gsgcn.LoadPreset(*dataset, *scale, *seed)
	if err != nil {
		return err
	}
	if *statsOn {
		s := ds.G.ComputeStats(true)
		fmt.Fprintf(stdout, "%s: |V|=%d |E|=%d avg-deg=%.2f max-deg=%d components=%d lcc=%.3f\n",
			ds.Name, s.Vertices, s.Edges, s.AvgDegree, s.MaxDegree, s.Components, s.LCCFrac)
	}
	path := *out
	if path == "" {
		path = ds.Name + ".gsg"
	}
	if err := gsgcn.WriteDataset(ds, path); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "gsgcn-datagen:", err)
		os.Exit(1)
	}
}
