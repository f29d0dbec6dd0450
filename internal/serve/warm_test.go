package serve

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/obs"
)

// writeTestArtifact builds and persists a snapshot for (ds, m) with
// the engine-default options, returning the artifact path.
func writeTestArtifact(tb testing.TB, ds *datasets.Dataset, m *core.Model, withIndex bool) string {
	tb.Helper()
	snap, err := BuildSnapshot(ds, m, Options{Workers: 2}, withIndex)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "m.art")
	if _, err := artifact.WriteFile(path, snap); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestWarmStartBitIdentical is the tentpole's acceptance test: a
// warm-started snapshot — embedding table, norms and HNSW index loaded
// from a persisted artifact — is bit-identical to a cold-started one
// (same float bytes, same index encoding, same query answers), on a
// >= 2k-vertex graph with trained weights.
func TestWarmStartBitIdentical(t *testing.T) {
	ds := annDataset(t)
	m := core.NewModel(ds, core.Config{
		Layers: 2, Hidden: 16, Workers: 1, Seed: 7,
		FrontierM: 50, Budget: 400, PInter: 1,
	})
	tr := core.NewTrainer(ds, m)
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	path := writeTestArtifact(t, ds, m, true)

	cold := NewEngine(ds, Options{Workers: 2, ANN: true})
	if _, err := cold.Install(m); err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(ds, Options{Workers: 3, ANN: true, ArtifactPath: path})
	if _, err := warm.Install(m); err != nil {
		t.Fatal(err)
	}

	stc, _ := cold.Snapshot()
	stw, _ := warm.Snapshot()
	if stw.WarmStart != true || stw.WarmNote != "" {
		t.Fatalf("warm engine did not warm-start: warm=%v note=%q", stw.WarmStart, stw.WarmNote)
	}
	if stc.WarmStart {
		t.Fatal("cold engine claims a warm start")
	}
	embC, embW := stc.Emb, stw.Emb
	if embC.Rows != embW.Rows || embC.Cols != embW.Cols {
		t.Fatalf("table shapes differ: %dx%d vs %dx%d", embC.Rows, embC.Cols, embW.Rows, embW.Cols)
	}
	for i := range embC.Data {
		if math.Float64bits(embC.Data[i]) != math.Float64bits(embW.Data[i]) {
			t.Fatalf("embedding element %d differs between cold and warm", i)
		}
	}
	for v := range stc.norms {
		if math.Float64bits(stc.norms[v]) != math.Float64bits(stw.norms[v]) {
			t.Fatalf("norm %d differs between cold and warm", v)
		}
	}

	// The artifact's index must be installed eagerly and be byte-equal
	// to the index the cold engine builds lazily.
	if stw.annIdx.Load() == nil {
		t.Fatal("warm snapshot has no eager index")
	}
	coldIdx := cold.annIndex(stc)
	if !bytes.Equal(coldIdx.EncodeBinary(), stw.annIdx.Load().EncodeBinary()) {
		t.Fatal("loaded index is not byte-equal to a freshly built one")
	}

	// Query answers — both modes — must agree exactly.
	for _, q := range []int{0, 500, 2199} {
		for _, mode := range []string{ModeExact, ModeANN} {
			a, err := cold.TopKWith(q, 10, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := warm.TopKWith(q, 10, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Mode != b.Mode || len(a.Neighbors) != len(b.Neighbors) {
				t.Fatalf("q=%d mode=%s: shape mismatch", q, mode)
			}
			for i := range a.Neighbors {
				if a.Neighbors[i] != b.Neighbors[i] {
					t.Fatalf("q=%d mode=%s rank %d: cold %+v warm %+v", q, mode, i, a.Neighbors[i], b.Neighbors[i])
				}
			}
		}
		ea, _ := cold.Embed([]int{q})
		eb, _ := warm.Embed([]int{q})
		for j := range ea.Vectors[0] {
			if math.Float64bits(ea.Vectors[0][j]) != math.Float64bits(eb.Vectors[0][j]) {
				t.Fatalf("q=%d: /embed differs at dim %d", q, j)
			}
		}
	}
}

// TestWarmStartFallsBack pins the safety half of the contract: a
// missing, corrupt or mismatched artifact must never change what the
// engine serves — it computes cold, records why, and the result is
// identical to an artifact-free engine.
func TestWarmStartFallsBack(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	good := writeTestArtifact(t, ds, m, true)

	// Each case is its own subtest, so one bad artifact's failure does
	// not hide the others.
	check := func(name, path string, dt mat.Dtype) {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(ds, Options{Workers: 2, ArtifactPath: path, Dtype: dt})
			if _, err := eng.Install(m); err != nil {
				t.Fatalf("install failed outright: %v", err)
			}
			st, _ := eng.Snapshot()
			if st.WarmStart {
				t.Fatal("engine warm-started from a bad artifact")
			}
			if st.WarmNote == "" {
				t.Fatal("fallback left no note")
			}
			if _, err := eng.TopKWith(0, 5, ModeAuto, 0); err != nil {
				t.Fatalf("queries broken after fallback: %v", err)
			}
		})
	}

	check("missing", filepath.Join(t.TempDir(), "absent.art"), mat.DtypeF64)

	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "trunc.art")
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	check("truncated", truncated, mat.DtypeF64)

	// A flipped bit inside emb.f64: the open checks that section's CRC
	// like every other, so no row read can meet the damage — neither a
	// query at f64 nor the codebook an i8pq install trains from this
	// f64 artifact's rows.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/3] ^= 0x10
	flippedPath := filepath.Join(t.TempDir(), "flip.art")
	if err := os.WriteFile(flippedPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	check("bit-flipped", flippedPath, mat.DtypeF64)
	check("bit-flipped-i8pq", flippedPath, mat.DtypeI8PQ)

	// Version skew: the artifact was built for an older weights
	// generation than the model being installed.
	m.ModelVersion++
	check("model-version-skew", good, mat.DtypeF64)
	m.ModelVersion--

	// Retrained weights whose step count collides: ModelVersion and
	// architecture match the artifact exactly, only the weight bits
	// differ — the WeightsSum fingerprint must catch it.
	w := &m.Params()[0].W.Data[0]
	*w += 0.125
	check("same-version-different-weights", good, mat.DtypeF64)
	*w -= 0.125

	// Wrong graph: an artifact computed over a different dataset.
	other := datasets.Generate(datasets.Config{
		Name: "other", Vertices: 180, TargetEdges: 720,
		FeatureDim: ds.FeatureDim(), NumClasses: ds.NumClasses, Seed: 99,
	})
	mo := testModel(t, other, 2)
	check("wrong-graph", writeTestArtifact(t, other, mo, false), mat.DtypeF64)
}

// TestWarmReloadReusesUnchangedArtifact checks the reload fast path:
// when the artifact file is unchanged, a reload reuses the in-memory
// tables and index outright (pointer-equal), and a changed-on-disk
// artifact that no longer validates drops back to the cold compute.
func TestWarmReloadReusesUnchangedArtifact(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	path := writeTestArtifact(t, ds, m, true)
	firstRow := func(st *State) *float64 { return &st.Emb.Row(0)[0] }

	eng := NewEngine(ds, Options{Workers: 2, ANN: true, ArtifactPath: path})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	st1, _ := eng.Snapshot()
	if !st1.WarmStart || st1.annIdx.Load() == nil {
		t.Fatal("first install did not warm-start with an eager index")
	}

	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	st2, _ := eng.Snapshot()
	if st2 == st1 {
		t.Fatal("reload did not publish a new snapshot")
	}
	if !st2.WarmStart {
		t.Fatal("reload lost the warm start")
	}
	if firstRow(st2) != firstRow(st1) || st2.annIdx.Load() != st1.annIdx.Load() {
		t.Fatal("reload against an unchanged artifact re-decoded instead of reusing tables")
	}
	if st2.Version <= st1.Version {
		t.Fatalf("reload version %d not beyond %d", st2.Version, st1.Version)
	}

	// A byte-identical copy under another path is a new source: it is
	// read in full, not matched by its checksum.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(t.TempDir(), "copy.art")
	if err := os.WriteFile(copyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.installShared(m, copyPath, sharedTables(m, ds, eng.opts)); err != nil {
		t.Fatal(err)
	}
	if st3, _ := eng.Snapshot(); !st3.WarmStart || firstRow(st3) == firstRow(st1) {
		t.Fatalf("reload from a new path reused the old tables (warm %v: %s)", st3.WarmStart, st3.WarmNote)
	}

	// Invalidate the artifact on disk: the next reload must notice and
	// fall back to the cold compute (the file no longer matches m).
	other := datasets.Generate(datasets.Config{
		Name: "other", Vertices: ds.G.NumVertices(), TargetEdges: 900,
		FeatureDim: ds.FeatureDim(), NumClasses: ds.NumClasses, Seed: 5,
	})
	mo := testModel(t, other, 2)
	mo.ModelVersion = 12345
	snap, err := BuildSnapshot(other, mo, Options{Workers: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	st3, _ := eng.Snapshot()
	if st3.WarmStart {
		t.Fatal("reload warm-started from an artifact for the wrong model")
	}
	if st3.WarmNote == "" {
		t.Fatal("mismatch fallback left no note")
	}
}

// TestBuildShardSnapshotsReportNothing: the builder installs on engines
// of its own, and those report into no registry, so a caller's Obs
// stays empty however many shards are built.
func TestBuildShardSnapshotsReportNothing(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	reg := obs.NewRegistry()
	if _, err := BuildShardSnapshots(ds, m, Options{Workers: 1, Obs: reg}, false, 2, 3); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() != 0 {
		t.Errorf("the builder reported into the caller's registry:\n%s", text.String())
	}
}

// TestWarmV1ArtifactFallsBackCold pins the retirement of artifact
// format 1: a v1 file with an intact trailer is refused with the typed
// version error, the engine computes cold, and the reason reaches
// /healthz as warm_note.
func TestWarmV1ArtifactFallsBackCold(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2)
	v1 := append([]byte("GSGCNART"), 1, 0, 0, 0, 0, 0, 0, 0) // version 1, empty header
	v1 = binary.LittleEndian.AppendUint64(v1, crc64.Checksum(v1, crc64.MakeTable(crc64.ECMA)))
	path := filepath.Join(t.TempDir(), "v1.art")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ds, Options{Workers: 1, ArtifactPath: path})
	defer srv.Close()
	if _, err := srv.Install(m); err != nil {
		t.Fatal(err)
	}
	health := srv.Health()
	if health.Status != "ok" || health.WarmStart || !strings.Contains(health.WarmNote, "format version 1") {
		t.Errorf("health after a v1 artifact = %+v", health)
	}
}
