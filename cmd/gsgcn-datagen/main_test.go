package main

import (
	"path/filepath"
	"strings"
	"testing"

	"gsgcn"
)

// TestRunWritesPresetGolden pins the command's output for a seeded
// preset and checks the file it names: read back, it is the dataset
// the library generates for the same preset, scale and seed.
func TestRunWritesPresetGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ppi.gsg")
	golden := "ppi: |V|=484 |E|=1529 avg-deg=6.32 max-deg=83 components=2 lcc=0.998\n" +
		"wrote " + path + "\n"
	var stdout, stderr strings.Builder
	if err := run([]string{"-dataset", "ppi", "-scale", "0.01", "-out", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != golden {
		t.Errorf("output drifted from the golden:\ngot:\n%s\nwant:\n%s", stdout.String(), golden)
	}
	if stderr.Len() != 0 {
		t.Errorf("a clean run wrote to stderr: %s", stderr.String())
	}
	got, err := gsgcn.ReadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gsgcn.LoadPreset("ppi", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The container's own fidelity is internal/datasets' business; here
	// it is enough that the file holds this dataset and not another.
	if got.Name != want.Name || got.G.NumVertices() != want.G.NumVertices() ||
		got.G.NumEdges() != want.G.NumEdges() || len(got.TrainIdx) != len(want.TrainIdx) {
		t.Errorf("read back %s |V|=%d |E|=%d train=%d, generated %s |V|=%d |E|=%d train=%d",
			got.Name, got.G.NumVertices(), got.G.NumEdges(), len(got.TrainIdx),
			want.Name, want.G.NumVertices(), want.G.NumEdges(), len(want.TrainIdx))
	}
	if d := got.Features.MaxAbsDiff(want.Features); d != 0 {
		t.Errorf("features differ by %g from the generated dataset", d)
	}
	if d := got.Labels.MaxAbsDiff(want.Labels); d != 0 {
		t.Errorf("labels differ from the generated dataset")
	}
}

// TestRunRejectsBadInput: an undefined flag and an unknown preset both
// come back as errors (main's exit 1) and write no file.
func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("undefined flag: err = %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of gsgcn-datagen") || stdout.Len() != 0 {
		t.Errorf("undefined flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	path := filepath.Join(t.TempDir(), "x.gsg")
	if err := run([]string{"-dataset", "cora", "-out", path}, &stdout, &stderr); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := gsgcn.ReadDataset(path); err == nil {
		t.Error("a rejected run left a dataset file")
	}
}
