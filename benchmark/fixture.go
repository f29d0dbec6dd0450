package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gsgcn"
)

// Fixture F, shared by the serving workloads: ppi at half scale, a
// 2-layer hidden-128 model (embedding dim 256) trained for 2 epochs.
// The dataset seed matches gsgcn-serve's -seed default.
const (
	fixPreset    = "ppi"
	fixScale     = 0.5
	fixDataSeed  = 1
	fixHidden    = 128
	fixEpochs    = 2
	fleetShards  = 3
	fleetSeed    = 7
	fleetDtype   = "i8pq"
	fixtureStamp = "ppi0.5-h128-e2"
)

// fixtures are the files a serving workload needs. They are generated
// once per checkout under workRoot and reused by later runs; none of
// the time spent here is part of any metric.
type fixtures struct {
	serveBin string
	indexBin string
	ckpt     string
	// fleetArt is the base path of the 3-shard i8pq artifacts
	// (needFleet only); indexBuildS is the recorded wall time of the
	// gsgcn-index run that wrote them and fleetBytes their total size.
	fleetArt    string
	indexBuildS float64
	fleetBytes  int64
}

func fixtureDataset() (*gsgcn.Dataset, error) {
	return gsgcn.LoadPreset(fixPreset, fixScale, fixDataSeed)
}

// datasetArgs are the CLI flags that make gsgcn-serve and gsgcn-index
// regenerate fixtureDataset.
func datasetArgs() []string {
	return []string{"-dataset", fixPreset, "-scale", fmt.Sprint(fixScale), "-seed", fmt.Sprint(fixDataSeed)}
}

func prepareFixtures(rc *runCtx, needFleet bool) (*fixtures, error) {
	t0 := time.Now()
	binDir := filepath.Join(workRoot, "bin")
	fixDir := filepath.Join(workRoot, "fixtures")
	for _, d := range []string{binDir, fixDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	fx := &fixtures{
		serveBin: filepath.Join(binDir, "gsgcn-serve"),
		indexBin: filepath.Join(binDir, "gsgcn-index"),
		ckpt:     filepath.Join(fixDir, fixtureStamp+".ckpt"),
	}
	// Always rebuild: the go tool decides from its cache whether the
	// binaries are current, so they can never be stale.
	build := exec.CommandContext(rc.ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/gsgcn-serve", "./cmd/gsgcn-index")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	buildS := time.Since(t0).Seconds()

	if _, err := os.Stat(fx.ckpt); err != nil {
		if err := trainFixture(fx.ckpt); err != nil {
			return nil, err
		}
	}
	if needFleet {
		fx.fleetArt = filepath.Join(fixDir, fmt.Sprintf("%s.%s.art", fixtureStamp, fleetDtype))
		if err := fx.buildFleetArtifacts(rc); err != nil {
			return nil, err
		}
	}
	rc.note("fixtures ready in %.2f s (go build %.2f s), not part of any metric", time.Since(t0).Seconds(), buildS)
	return fx, nil
}

// trainFixture trains fixture F in process and saves its checkpoint.
func trainFixture(path string) error {
	ds, err := fixtureDataset()
	if err != nil {
		return err
	}
	model := gsgcn.NewModel(ds, gsgcn.Config{Layers: 2, Hidden: fixHidden, Seed: 1})
	tr := gsgcn.NewTrainer(ds, model)
	for i := 0; i < fixEpochs; i++ {
		tr.Epoch()
	}
	// Rename into place so an interrupted run leaves no partial file.
	tmp := path + ".tmp"
	if err := model.SaveFile(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// index runs gsgcn-index on fixture F into out unless a previous run
// already did, which the build-time stamp file (written last) says.
// It returns the recorded wall time of the run that wrote out.
func (fx *fixtures) index(rc *runCtx, out string, extra ...string) (float64, error) {
	stamp := out + ".build_s"
	raw, err := os.ReadFile(stamp)
	if err != nil {
		t0 := time.Now()
		args := append(append(datasetArgs(), "-load", fx.ckpt, "-out", out), extra...)
		if msg, err := exec.CommandContext(rc.ctx, fx.indexBin, args...).CombinedOutput(); err != nil {
			return 0, fmt.Errorf("gsgcn-index: %v\n%s", err, msg)
		}
		raw = []byte(strconv.FormatFloat(time.Since(t0).Seconds(), 'f', 3, 64))
		if err := os.WriteFile(stamp, raw, 0o644); err != nil {
			return 0, err
		}
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", stamp, err)
	}
	return s, nil
}

func (fx *fixtures) buildFleetArtifacts(rc *runCtx) (err error) {
	fx.indexBuildS, err = fx.index(rc, fx.fleetArt,
		"-shards", fmt.Sprint(fleetShards), "-shard-seed", fmt.Sprint(fleetSeed), "-dtype", fleetDtype)
	if err != nil {
		return err
	}
	for i := 0; i < fleetShards; i++ {
		st, err := os.Stat(gsgcn.ShardArtifactPath(fx.fleetArt, i, fleetShards))
		if err != nil {
			return err
		}
		fx.fleetBytes += st.Size()
	}
	return nil
}

// serveArgs is the gsgcn-serve command line of a workload, without
// the listen addresses.
func (fx *fixtures) serveArgs(fleet bool) []string {
	args := append(datasetArgs(), "-load", fx.ckpt)
	if fleet {
		args = append(args, "-shards", fmt.Sprint(fleetShards), "-shard-seed", fmt.Sprint(fleetSeed),
			"-artifact", fx.fleetArt, "-mmap", "-ann", "-dtype", fleetDtype)
	}
	return args
}
