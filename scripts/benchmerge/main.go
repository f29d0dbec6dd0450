// Command benchmerge appends one benchmark run to a BENCH_*.json
// trajectory file, so the perf numbers accumulate across PRs instead
// of each run overwriting the last.
//
// It reads a single run entry (the object bench-json.sh emits) on
// stdin and rewrites -out as
//
//	{"package": "...", "trajectory": [entry, entry, ...]}
//
// Re-running on the same commit replaces that commit's entry rather
// than appending a duplicate, so `make bench` is idempotent within one
// PR.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// entry is one benchmark run. Benchmarks stays raw: benchmerge only
// orders entries, it never reinterprets the numbers.
type entry struct {
	Commit     string          `json:"commit,omitempty"`
	Date       string          `json:"date,omitempty"`
	Go         string          `json:"go,omitempty"`
	Package    string          `json:"package,omitempty"`
	Benchmarks json.RawMessage `json:"benchmarks"`
}

type trajectory struct {
	Package    string  `json:"package"`
	Trajectory []entry `json:"trajectory"`
}

func main() {
	out := flag.String("out", "", "trajectory file to update (required)")
	commit := flag.String("commit", "", "commit id to stamp on this run")
	date := flag.String("date", "", "date to stamp on this run (YYYY-MM-DD)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchmerge: -out is required")
		os.Exit(2)
	}
	if err := run(*out, *commit, *date, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge:", err)
		os.Exit(1)
	}
}

func run(path, commit, date string, in io.Reader) error {
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return fmt.Errorf("stdin is not a run entry: %w", err)
	}
	var marks []json.RawMessage
	if err := json.Unmarshal(e.Benchmarks, &marks); err != nil || len(marks) == 0 {
		return fmt.Errorf("run entry has no benchmarks")
	}
	e.Commit, e.Date = commit, date

	traj, err := load(path)
	if err != nil {
		return err
	}
	if traj.Package == "" {
		traj.Package = e.Package
	}
	e.Package = "" // lives at the top level, not per entry
	replaced := false
	if commit != "" {
		// Replace wherever this commit's entry sits, not just at the
		// tail: micro-bench and loadgen runs stamp distinct commit ids
		// into one trajectory, so a rerun's entry may not be last.
		for i := range traj.Trajectory {
			if traj.Trajectory[i].Commit == commit {
				traj.Trajectory[i] = e
				replaced = true
				break
			}
		}
	}
	if !replaced {
		traj.Trajectory = append(traj.Trajectory, e)
	}

	enc, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// load reads an existing trajectory file. A missing file starts an
// empty one; anything that is not a trajectory is refused rather than
// overwritten.
func load(path string) (*trajectory, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var traj trajectory
	if err := json.Unmarshal(raw, &traj); err != nil || traj.Trajectory == nil {
		return nil, fmt.Errorf("%s is not a trajectory file", path)
	}
	return &traj, nil
}
