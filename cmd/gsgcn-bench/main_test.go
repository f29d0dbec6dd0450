package main

import (
	"strings"
	"testing"
)

// TestRunTable1Golden pins the command's whole output for the one
// experiment with no timing in it: the banner, then Table I as
// generated for the quick configuration. Dataset generation is
// seeded, so any drift here is a change in the generator, the
// statistics or the report format.
func TestRunTable1Golden(t *testing.T) {
	const golden = `gsgcn 1.0.0 — graph-sampling GCN (IPDPS'19 reproduction)
Table I: dataset statistics (synthetic stand-ins at scale 0.05)
Dataset     Paper |V|      Paper |E|    Gen |V|      Gen |E|   Attr  Classes  Label   AvgDeg   MaxDeg      LCC
ppi             14755         225270        737         5711     50      121    (M)    15.50      227    1.000
`
	var stdout, stderr strings.Builder
	if err := run([]string{"-exp", "table1", "-quick"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != golden {
		t.Errorf("output drifted from the golden:\ngot:\n%s\nwant:\n%s", stdout.String(), golden)
	}
	if stderr.Len() != 0 {
		t.Errorf("a clean run wrote to stderr: %s", stderr.String())
	}
}

// TestRunRejectsBadInput: an undefined flag and an unknown experiment
// both come back as errors (main's exit 1), the first with the usage
// text on stderr and nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-no-such-flag"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
		t.Errorf("undefined flag: err = %v", err)
	}
	if !strings.Contains(stderr.String(), "Usage of gsgcn-bench") || stdout.Len() != 0 {
		t.Errorf("undefined flag: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	err = run([]string{"-exp", "fig9"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig9"`) {
		t.Errorf("unknown experiment: err = %v", err)
	}
}
