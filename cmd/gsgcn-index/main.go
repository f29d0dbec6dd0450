// Command gsgcn-index produces serving snapshot artifacts offline: it
// loads a trained v2 checkpoint and the serving graph, computes the
// full-graph embedding table (the same layer-wise pass gsgcn-serve
// runs on a cold start) and the deterministic HNSW index, and persists
// both as a versioned, checksummed artifact file plus a JSON manifest.
// A server started with -artifact pointing at the output skips the
// entire embedding recompute and index build: cold start becomes a
// disk read, and /reload against an unchanged artifact reuses the
// in-memory tables outright.
//
// Because both the embedding pass and the HNSW construction are
// bit-deterministic, the artifact is byte-equal to what the server
// would have computed itself — the warm path changes latency, never
// answers.
//
// Usage:
//
//	gsgcn-index -load model.ckpt -data reddit.gsg -out model.ckpt.art
//	gsgcn-index -load model.ckpt -dataset ppi -scale 0.05
//
// The index is built with the same -ann-m default as gsgcn-serve; use
// a matching -ann-m on both sides — a structural mismatch (M) makes
// the server keep the warm embeddings but rebuild the index lazily.
// -ann-ef is not structural: query beam width is always resolved from
// the server's own flags, so it never affects index adoption.
//
// With -dtype f32 or i8pq the artifact also carries that quantized
// table; the exact float64 table is always present, so exact answers
// never change. A server started with the same -dtype adopts the
// persisted payload instead of re-quantizing, and serves the float64
// rows straight from the mapped file. Every dtype answers
// mode=ann by walking the HNSW index, so -index=false means the same
// thing whatever the -dtype: the server builds the index lazily on the
// first ann query against the snapshot.
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

// run is the whole command: it parses args, writes what it built and
// where to stdout, and flag diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gsgcn-index", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		load    = fs.String("load", "", "model checkpoint to index (required)")
		data    = fs.String("data", "", "serving graph in .gsg format (overrides -dataset)")
		dataset = fs.String("dataset", "ppi", "preset to regenerate when -data is unset: ppi|reddit|yelp|amazon")
		scale   = fs.Float64("scale", 0.05, "preset scale relative to Table I")
		seed    = fs.Uint64("seed", 1, "preset generation seed (must match training)")
		out     = fs.String("out", "", "artifact output path (default <load>.art)")
		workers = fs.Int("workers", 0, "goroutines for the embedding pass and index build (0 = GOMAXPROCS)")
		dtype   = fs.String("dtype", "f64", "resident representation to quantize into the artifact: f64|f32|i8pq (exact answers always stay f64)")
		index   = fs.Bool("index", true, "include the HNSW index (false = embeddings only)")
		annM    = fs.Int("ann-m", 0, "HNSW connectivity, must match the server's -ann-m (0 = 16)")
		annEf   = fs.Int("ann-ef", 0, "default query beam width stored with the index (0 = 64)")
		shards  = fs.Int("shards", 0, "build per-shard artifacts for an N-shard serving fleet: -out becomes the base path, shard i lands at <out>.s<i>ofN (0 or 1 = one whole-graph artifact)")
		shSeed  = fs.Uint64("shard-seed", 0, "seed keying the vertex-shard assignment (must match gsgcn-serve -shard-seed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *load == "" {
		return errors.New("-load is required")
	}
	dt, err := gsgcn.ParseServingDtype(*dtype)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = *load + ".art"
	}

	var ds *gsgcn.Dataset
	if *data != "" {
		ds, err = gsgcn.ReadDataset(*data)
	} else {
		ds, err = gsgcn.LoadPreset(*dataset, *scale, *seed)
	}
	if err != nil {
		return err
	}
	m, err := gsgcn.LoadModelFile(*load)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: |V|=%d |E|=%d, model_version %d\n",
		ds.Name, ds.G.NumVertices(), ds.G.NumEdges(), m.ModelVersion)

	opts := gsgcn.ServeOptions{
		Workers: *workers, ANNM: *annM, ANNEf: *annEf,
		Dtype: dt,
	}
	nShards := *shards
	if nShards < 1 {
		nShards = 1
	}
	start := time.Now()
	snaps, err := gsgcn.BuildShardServingArtifacts(ds, m, opts, *index, nShards, *shSeed)
	if err != nil {
		return err
	}
	built := time.Since(start)

	for i, snap := range snaps {
		path := *out
		if nShards > 1 {
			path = gsgcn.ShardArtifactPath(*out, i, nShards)
		}
		sum, err := gsgcn.WriteServingArtifact(path, snap)
		if err != nil {
			return err
		}
		mfPath, err := gsgcn.WriteArtifactManifest(path, *load, snap, sum)
		if err != nil {
			return err
		}
		info, _ := os.Stat(path)
		size := int64(0)
		if info != nil {
			size = info.Size()
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes, crc64 %016x, computed in %v) + %s\n",
			path, size, sum, built.Round(time.Millisecond), mfPath)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "gsgcn-index:", err)
		os.Exit(1)
	}
}
