package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m2 := NewModel(ds, tinyConfig())
	// Fresh model differs from trained one.
	if m.Params()[0].W.Equal(m2.Params()[0].W, 0) {
		t.Fatal("trained and fresh weights identical; training did nothing")
	}
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		if !p.W.Equal(m2.Params()[i].W, 0) {
			t.Fatalf("tensor %q differs after load", p.Name)
		}
	}
	// Loaded model produces identical inference (evaluation runs on
	// the full graph and does not involve the sampler).
	tr2 := NewTrainer(ds, m2)
	a := tr.Evaluate(ds.ValIdx)
	b := tr2.Evaluate(ds.ValIdx)
	if a != b {
		t.Errorf("evaluation differs after checkpoint load: %v vs %v", a, b)
	}
}

// TestWeightsChecksum pins the content identity serving artifacts are
// validated against: equal weights checksum equally (also across a
// Save/Load round trip), any weight change — one value nudged by
// 1e-12, a different seed — changes it, and the batched float hashing
// writes the same byte stream as per-value writes, so checksums
// persisted in existing artifacts stay valid.
func TestWeightsChecksum(t *testing.T) {
	ds := tinyDataset(t, false)
	a := NewModel(ds, tinyConfig())
	if a.WeightsChecksum() != NewModel(ds, tinyConfig()).WeightsChecksum() {
		t.Fatal("identically seeded models checksum differently")
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Seed++
	b := NewModel(ds, cfg)
	if a.WeightsChecksum() == b.WeightsChecksum() {
		t.Error("different seeds collide")
	}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if a.WeightsChecksum() != b.WeightsChecksum() {
		t.Error("checksum changed across a Save/Load round trip")
	}

	c := NewModel(ds, tinyConfig())
	c.Params()[0].W.Data[7] += 1e-12
	if a.WeightsChecksum() == c.WeightsChecksum() {
		t.Error("weight perturbation not detected")
	}

	// Lengths around the staging buffer's edges, including a partial
	// final chunk.
	for _, n := range []int{0, 1, hashChunk - 1, hashChunk, 2*hashChunk + 3} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)*0.37 - 11
		}
		batched := crc64.New(weightsCRCTable)
		hashFloat64s(batched, xs)
		single := crc64.New(weightsCRCTable)
		var w [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
			single.Write(w[:])
		}
		if batched.Sum64() != single.Sum64() {
			t.Errorf("n=%d: batched hash %x, per-value hash %x", n, batched.Sum64(), single.Sum64())
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Hidden = 8 // different architecture
	m2 := NewModel(ds, cfg)
	if err := m2.Load(&buf); err == nil {
		t.Fatal("loading into mismatched architecture should fail")
	}
}

func TestCheckpointLayerCountMismatch(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Layers = 3
	m2 := NewModel(ds, cfg)
	if err := m2.Load(&buf); err == nil {
		t.Fatal("loading into deeper model should fail")
	}
}

func TestCheckpointGarbage(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	if err := m.Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage input should fail to decode")
	}
}

// TestCheckpointModelVersionRoundTrip checks that the v2 metadata —
// in particular the trained-weights generation tag — survives a
// save/load cycle, both into an existing model and through the
// dataset-free LoadModel reconstruction.
func TestCheckpointModelVersionRoundTrip(t *testing.T) {
	ds := tinyDataset(t, true)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	m.ModelVersion = uint64(tr.Steps())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m2 := NewModel(ds, tinyConfig())
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m2.ModelVersion != m.ModelVersion {
		t.Errorf("ModelVersion after Load = %d, want %d", m2.ModelVersion, m.ModelVersion)
	}

	m3, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m3.ModelVersion != m.ModelVersion {
		t.Errorf("ModelVersion after LoadModel = %d, want %d", m3.ModelVersion, m.ModelVersion)
	}
}

// TestLoadModelReconstructsArchitecture checks that LoadModel rebuilds
// the exact architecture (depth, widths, loss) and weights from
// checkpoint metadata alone, producing bit-identical inference.
func TestLoadModelReconstructsArchitecture(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	tr := NewTrainer(ds, m)
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Layers) != len(m.Layers) {
		t.Fatalf("layers = %d, want %d", len(m2.Layers), len(m.Layers))
	}
	if m2.Layers[0].InDim != ds.FeatureDim() || m2.Head.OutDim != ds.NumClasses {
		t.Fatalf("dims %d->%d, want %d->%d",
			m2.Layers[0].InDim, m2.Head.OutDim, ds.FeatureDim(), ds.NumClasses)
	}
	if m2.Loss.Name() != m.Loss.Name() {
		t.Errorf("loss = %q, want %q", m2.Loss.Name(), m.Loss.Name())
	}
	for i, p := range m.Params() {
		if !p.W.Equal(m2.Params()[i].W, 0) {
			t.Fatalf("tensor %q differs after LoadModel", p.Name)
		}
	}
	ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	a := m.Forward(ctx, ds.Features)
	ctx2 := m2.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	b := m2.Forward(ctx2, ds.Features)
	if !a.Equal(b, 0) {
		t.Error("reconstructed model inference differs from original")
	}
}

// TestLoadModelRejectsBadAggregator: a v2 checkpoint naming an
// aggregator other than the mean — Kipf-Welling "sym", GIN-style "sum"
// or a corrupt string — is refused by LoadModel and by Model.Load with
// an error naming it, rather than a panic (a hot-reloading server must
// survive a bad checkpoint file) or a model that computes something
// else; Model.Load leaves the weights untouched. An empty name, what a
// checkpoint that predates the field carries, and "mean" load.
func TestLoadModelRejectsBadAggregator(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, agg string }{
		{"unnamed", ""}, {"mean", "mean"}, {"sym", "sym"}, {"sum", "sum"}, {"bogus", "bogus"},
	} {
		agg := tc.agg
		t.Run(tc.name, func(t *testing.T) {
			data := edited(t, buf.Bytes(), func(ck *checkpoint) { ck.Aggregator = agg })
			_, errModel := LoadModel(bytes.NewReader(data))
			into := NewModel(ds, tinyConfig())
			into.Params()[0].W.Data[0]++
			before := weightCRC(into)
			errLoad := into.Load(bytes.NewReader(data))
			if agg == "" || agg == "mean" {
				if errModel != nil || errLoad != nil {
					t.Fatalf("LoadModel %v, Load %v; want both to load", errModel, errLoad)
				}
				return
			}
			for name, err := range map[string]error{"LoadModel": errModel, "Load": errLoad} {
				if err == nil || !strings.Contains(err.Error(), `"`+agg+`"`) {
					t.Errorf("%s returned %v, want an error naming it", name, err)
				}
			}
			if weightCRC(into) != before {
				t.Error("a refused Load changed the weights")
			}
		})
	}
}

// TestLoadRefusesOtherArchitecture: Model.Load compares every field of
// a v2 checkpoint's architecture metadata but ModelVersion with the
// model's, not only its tensor shapes — a multi-label checkpoint
// loaded into a single-label model of the same shapes would go on
// training with the other loss — and a refused load names the field
// and leaves the weights untouched. Each metadata field is edited
// alone on a checkpoint whose tensors fit the model (the aggregator's
// values are TestLoadModelRejectsBadAggregator's). Another
// ModelVersion loads, and so does a v1 checkpoint, which carries no
// metadata and is still restored by shape.
func TestLoadRefusesOtherArchitecture(t *testing.T) {
	single := tinyDataset(t, false)
	cfg := tinyConfig()
	cfg.Seed++ // weights other than a fresh model's, so a load shows
	save := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	src, multi := NewModel(single, cfg), NewModel(tinyDataset(t, true), cfg)
	if len(multi.Params()) != len(src.Params()) || multi.NumParams() != src.NumParams() {
		t.Fatal("the single- and multi-label models differ in shape: the test needs them equal")
	}
	singleCk, multiCk := save(src), save(multi)
	cases := []struct {
		name string
		data []byte
		want string // substring of the refusal; "" means the load succeeds
		from *Model // the weights a successful load leaves
	}{
		{"multi_label", multiCk, "multi_label is true", nil},
		{"in_dim", edited(t, singleCk, func(ck *checkpoint) { ck.InDim++ }), "in_dim is 17", nil},
		{"classes", edited(t, singleCk, func(ck *checkpoint) { ck.Classes++ }), "classes is 6", nil},
		{"layers", edited(t, singleCk, func(ck *checkpoint) { ck.Layers++ }), "layers is 3", nil},
		{"hidden", edited(t, singleCk, func(ck *checkpoint) { ck.Hidden++ }), "hidden is 17", nil},
		{"model_version", edited(t, singleCk, func(ck *checkpoint) { ck.ModelVersion += 7 }), "", src},
		{"v1-multi-label", edited(t, multiCk, func(ck *checkpoint) { ck.Version = 1 }), "", multi},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			into := NewModel(single, tinyConfig())
			before := weightCRC(into)
			err := into.Load(bytes.NewReader(tc.data))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("checkpoint of equal shapes: %v", err)
				}
				if weightCRC(into) != weightCRC(tc.from) {
					t.Fatal("the load left other weights than the checkpoint's")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load: %v, want an error containing %q", err, tc.want)
			}
			if weightCRC(into) != before {
				t.Fatal("a refused Load changed the weights")
			}
		})
	}
}

func TestCheckpointFile(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(ds, tinyConfig())
	if err := m2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestNonFiniteWeightsAreRefused: a model with one NaN weight — what
// ten steps on a feature row holding a NaN left behind before inputs
// were checked — is refused by Save with ErrNonFinite naming the
// parameter and the flat index, writing nothing; a checkpoint carrying
// a NaN or an Inf is refused by Load the same way, and the model it
// was loaded into keeps its weights.
func TestNonFiniteWeightsAreRefused(t *testing.T) {
	ds := tinyDataset(t, false)
	m := NewModel(ds, tinyConfig())
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		t.Fatal(err)
	}
	m.Layers[1].WNeigh.W.Data[5] = math.NaN()
	var buf bytes.Buffer
	err := m.Save(&buf)
	if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "w_neigh[5]") {
		t.Fatalf("Save of a NaN weight: %v, want ErrNonFinite naming w_neigh[5]", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Save wrote %d bytes before refusing", buf.Len())
	}

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fresh := NewModel(ds, tinyConfig())
		before := weightCRC(fresh)
		err := fresh.Load(bytes.NewReader(withWeight(t, good.Bytes(), v)))
		if !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "[2]") {
			t.Fatalf("Load of a %v weight: %v, want ErrNonFinite naming index 2", v, err)
		}
		if weightCRC(fresh) != before {
			t.Fatalf("a refused Load of a %v weight changed the model", v)
		}
	}
}
