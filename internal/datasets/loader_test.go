package datasets

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := Generate(smallCfg())
	var buf bytes.Buffer
	if err := Write(orig, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.MultiLabel != orig.MultiLabel || got.NumClasses != orig.NumClasses {
		t.Errorf("metadata mismatch: %s/%v/%d", got.Name, got.MultiLabel, got.NumClasses)
	}
	if got.G.NumVertices() != orig.G.NumVertices() || got.G.NumEdges() != orig.G.NumEdges() {
		t.Errorf("graph mismatch: V %d->%d E %d->%d",
			orig.G.NumVertices(), got.G.NumVertices(), orig.G.NumEdges(), got.G.NumEdges())
	}
	// Adjacency identical.
	for v := int32(0); v < int32(orig.G.NumVertices()); v++ {
		a, b := orig.G.Neighbors(v), got.G.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree %d -> %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d adjacency differs", v)
			}
		}
	}
	// Features equal within text round-trip precision (%g is exact
	// for float64).
	if d := got.Features.MaxAbsDiff(orig.Features); d != 0 {
		t.Errorf("features differ by %g after round trip", d)
	}
	if d := got.Labels.MaxAbsDiff(orig.Labels); d != 0 {
		t.Errorf("labels differ after round trip")
	}
	for i := range orig.TrainIdx {
		if got.TrainIdx[i] != orig.TrainIdx[i] {
			t.Fatal("train split differs")
		}
	}
	if len(got.ValIdx) != len(orig.ValIdx) || len(got.TestIdx) != len(orig.TestIdx) {
		t.Error("split sizes differ")
	}
}

func TestWriteReadMultiLabel(t *testing.T) {
	cfg := smallCfg()
	cfg.MultiLabel = true
	orig := Generate(cfg)
	var buf bytes.Buffer
	if err := Write(orig, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Labels.MaxAbsDiff(orig.Labels); d != 0 {
		t.Error("multi-labels differ after round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "not-a-dataset foo\n",
		"bad field":   "gsgcn-dataset x vertices=abc edges=0 features=1 classes=1 multi=false\n",
		"no edges":    "gsgcn-dataset x vertices=1 edges=0 features=1 classes=1 multi=false\n[wrong]\n",
		"bad edge":    "gsgcn-dataset x vertices=2 edges=1 features=1 classes=1 multi=false\n[edges]\nzap\n",
		"short feats": "gsgcn-dataset x vertices=2 edges=0 features=2 classes=1 multi=false\n[edges]\n[features]\n1.0\n",
		"bad label":   "gsgcn-dataset x vertices=1 edges=0 features=1 classes=2 multi=false\n[edges]\n[features]\n1.0\n[labels]\n9\n",
		"no splits":   "gsgcn-dataset x vertices=1 edges=0 features=1 classes=1 multi=false\n[edges]\n[features]\n1.0\n[labels]\n0\n",
		"bad split":   "gsgcn-dataset x vertices=1 edges=0 features=1 classes=1 multi=false\n[edges]\n[features]\n1.0\n[labels]\n0\n[train]\nxyz\n[val]\n[test]\n",
		"weird split": "gsgcn-dataset x vertices=1 edges=0 features=1 classes=1 multi=false\n[edges]\n[features]\n1.0\n[labels]\n0\n[bogus]\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Read accepted malformed input", name)
		}
	}
}

// TestReadRejectsNonFiniteFeatures: every spelling of a NaN or an
// infinity strconv.ParseFloat accepts, and a number past float64's
// range, is refused in a feature, with an error naming the vertex and
// the column it sits in.
func TestReadRejectsNonFiniteFeatures(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-Infinity", "1e400"} {
		input := "gsgcn-dataset x vertices=2 edges=1 features=3 classes=1 multi=false\n[edges]\n0 1\n[features]\n" +
			"0.5 1 2\n3 4 " + bad + "\n[labels]\n0\n0\n[train]\n0\n[val]\n1\n[test]\n"
		_, err := Read(strings.NewReader(input))
		if err == nil {
			t.Errorf("feature %q accepted", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "row 1 col 2") {
			t.Errorf("feature %q: error %q does not name vertex 1, column 2", bad, msg)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	ds := Generate(smallCfg())
	path := filepath.Join(t.TempDir(), "ds.gsg")
	if err := WriteFile(ds, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.G.NumEdges() != ds.G.NumEdges() {
		t.Error("file round trip lost edges")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.gsg")); err == nil {
		t.Error("missing file should error")
	}
}
