package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gsgcn"
	"gsgcn/internal/core"
)

// TestRunTrainsGolden pins the command's output for a short run on a
// dataset file, the same run a serving deployment starts from, line
// for line except the wall-clock fields: the elapsed time closing each
// epoch line and the time breakdown. The checkpoint it names loads
// back, stamped with the optimizer step count as its model version.
func TestRunTrainsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("loss digits are pinned on amd64 only, like the loss-trace pin")
	}
	dir := t.TempDir()
	data, ckpt := filepath.Join(dir, "g.gsg"), filepath.Join(dir, "m.ckpt")
	ds, err := gsgcn.LoadPreset("ppi", 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := gsgcn.WriteDataset(ds, data); err != nil {
		t.Fatal(err)
	}
	golden := []string{
		"ppi: |V|=484 |E|=2546 attrs=50 classes=121 multi=true",
		"GCN(L=2, hidden=16, params=6617, loss=sigmoid-bce)",
		"epoch   1  loss 11.0581  val-F1 0.0000  elapsed *",
		"epoch   2  loss 10.4918  val-F1 0.0000  elapsed *",
		"test-F1 0.0000",
		"time breakdown: *",
		"saved checkpoint " + ckpt + " (model_version 6)",
	}
	var stdout, stderr strings.Builder
	if err := run([]string{"-data", data, "-epochs", "2", "-hidden", "16", "-save", ckpt}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	for i, line := range lines {
		if at := strings.Index(line, "elapsed "); at >= 0 {
			lines[i] = line[:at] + "elapsed *"
		}
		if strings.HasPrefix(line, "time breakdown: ") {
			lines[i] = "time breakdown: *"
		}
	}
	if strings.Join(lines, "\n") != strings.Join(golden, "\n") {
		t.Errorf("output drifted from the golden:\ngot:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(golden, "\n"))
	}
	if stderr.Len() != 0 {
		t.Errorf("a clean run wrote to stderr: %s", stderr.String())
	}

	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	budget := gsgcn.NewModel(ds, gsgcn.Config{Layers: 2, Hidden: 16, LR: 0.01, Seed: 1}).Config().Budget
	steps := 2 * ((ds.G.NumVertices() + budget - 1) / budget) // core.Trainer.Epoch's iterations, twice
	if m.ModelVersion != uint64(steps) {
		t.Errorf("checkpoint model_version %d, want the step count %d", m.ModelVersion, steps)
	}
}

// TestRunRejectsBadInput: an undefined flag and an unknown sampler both
// come back as errors (main's exit 1), the first with the usage text on
// stderr and nothing on stdout, and neither writes a checkpoint.
func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("undefined flag: err = %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of gsgcn-train") || stdout.Len() != 0 {
		t.Errorf("undefined flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	err = run([]string{"-scale", "0.01", "-epochs", "1", "-hidden", "8", "-sampler", "nope", "-save", ckpt}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown sampler "nope"`) {
		t.Errorf("unknown sampler: err = %v", err)
	}
	if _, err := core.LoadModelFile(ckpt); err == nil {
		t.Error("a rejected run left a checkpoint")
	}
}
