package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readTraj(t *testing.T, path string) trajectory {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var traj trajectory
	if err := json.Unmarshal(raw, &traj); err != nil {
		t.Fatalf("output is not a trajectory: %v\n%s", err, raw)
	}
	return traj
}

const runEntry = `{"go": "go1.24.0", "package": "./x", "benchmarks": [{"name": "BenchmarkA", "iterations": 1, "ns_per_op": 42}]}`

// TestTrajectoryAccumulates covers the whole lifecycle: a fresh file,
// an append from a later commit, and the legacy single-run migration.
func TestTrajectoryAccumulates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")

	if err := run(path, "aaa", "2026-08-08", strings.NewReader(runEntry)); err != nil {
		t.Fatal(err)
	}
	if traj := readTraj(t, path); len(traj.Trajectory) != 1 || traj.Package != "./x" {
		t.Fatalf("fresh file: got %+v", traj)
	}

	if err := run(path, "bbb", "2026-08-09", strings.NewReader(runEntry)); err != nil {
		t.Fatal(err)
	}
	traj := readTraj(t, path)
	if len(traj.Trajectory) != 2 || traj.Trajectory[0].Commit != "aaa" || traj.Trajectory[1].Commit != "bbb" {
		t.Fatalf("append: got %+v", traj)
	}

	// Same commit again: replaced, not duplicated.
	if err := run(path, "bbb", "2026-08-10", strings.NewReader(runEntry)); err != nil {
		t.Fatal(err)
	}
	traj = readTraj(t, path)
	if len(traj.Trajectory) != 2 || traj.Trajectory[1].Date != "2026-08-10" {
		t.Fatalf("same-commit rerun: got %+v", traj)
	}

	// A rerun replaces its own entry even when later entries (a
	// loadgen run stamping a distinct commit id) were appended after
	// it — position in the trajectory must not matter.
	if err := run(path, "aaa", "2026-08-11", strings.NewReader(runEntry)); err != nil {
		t.Fatal(err)
	}
	traj = readTraj(t, path)
	if len(traj.Trajectory) != 2 || traj.Trajectory[0].Date != "2026-08-11" || traj.Trajectory[1].Commit != "bbb" {
		t.Fatalf("mid-trajectory rerun: got %+v", traj)
	}
}

// TestRejectsGarbage pins the error paths: junk stdin, an empty run,
// and an unrecognizable existing file.
func TestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	if err := run(path, "c", "d", strings.NewReader("not json")); err == nil {
		t.Error("junk stdin accepted")
	}
	if err := run(path, "c", "d", strings.NewReader(`{"benchmarks": []}`)); err == nil {
		t.Error("empty run accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"what": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, "c", "d", strings.NewReader(runEntry)); err == nil {
		t.Error("unrecognizable existing file accepted")
	}
	// A bare single-run file (the retired pre-trajectory layout) is
	// refused like any other non-trajectory, never clobbered.
	if err := os.WriteFile(bad, []byte(runEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bad, "c", "d", strings.NewReader(runEntry)); err == nil {
		t.Error("single-run file accepted as a trajectory")
	}
}
