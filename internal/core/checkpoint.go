package core

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"reflect"
)

// checkpoint is the serialized form of a model's trainable state plus
// enough architecture metadata (format v2) to reconstruct the model
// without the dataset it was trained on — what an inference server
// needs to come up from a checkpoint file alone.
type checkpoint struct {
	Version int

	// Architecture metadata, present since format v2.
	ModelVersion uint64 // trained-weights generation tag (e.g. optimizer steps)
	InDim        int    // input feature dimensionality
	Classes      int    // classifier output width
	MultiLabel   bool   // sigmoid-BCE (true) vs softmax-CE head
	Aggregator   string // neighbor aggregation operator name: "mean" ("" reads as "mean")

	Layers     int
	Hidden     int
	Names      []string
	Rows, Cols []int
	Data       [][]float64
}

// checkpointVersion is the current on-disk format. Version 1 lacked
// the architecture metadata; Load still accepts it (the metadata
// fields decode as zero values), LoadModel does not.
const checkpointVersion = 2

// ArchMeta is the architecture fingerprint of a model plus its
// trained-weights generation: the fields a serving artifact must match
// before its precomputed tables may stand in for a fresh forward pass.
// Two models with equal ArchMeta loaded from the same checkpoint
// produce bit-identical embeddings over the same graph.
type ArchMeta struct {
	ModelVersion uint64 `json:"model_version"`
	InDim        int    `json:"in_dim"`
	Classes      int    `json:"classes"`
	MultiLabel   bool   `json:"multi_label"`
	Aggregator   string `json:"aggregator"`
	Layers       int    `json:"layers"`
	Hidden       int    `json:"hidden"`
}

// ArchMeta returns the model's architecture fingerprint — the same
// metadata Save embeds in a v2 checkpoint.
func (m *Model) ArchMeta() ArchMeta {
	return ArchMeta{
		ModelVersion: m.ModelVersion,
		InDim:        m.Layers[0].InDim,
		Classes:      m.Head.OutDim,
		MultiLabel:   m.Loss.Name() == "sigmoid-bce",
		Aggregator:   "mean", // every layer pools neighbors by their mean
		Layers:       len(m.Layers),
		Hidden:       m.cfg.Hidden,
	}
}

// EmbeddingDim returns the width of the final-layer embedding table a
// full-graph forward pass of this model produces.
func (m *Model) EmbeddingDim() int {
	return m.Layers[len(m.Layers)-1].OutWidth()
}

// weightsCRCTable is the CRC-64/ECMA table for WeightsChecksum.
var weightsCRCTable = crc64.MakeTable(crc64.ECMA)

// WeightsChecksum fingerprints the model's trainable parameters:
// CRC-64/ECMA over every tensor's name, shape and raw float64 bits in
// Params() order. Serving-artifact validation needs it because
// ModelVersion is an optimizer step count, not a content hash — two
// trainings with different seeds or data can land on the same step
// count, and only the weight bits tell their embeddings apart.
func (m *Model) WeightsChecksum() uint64 {
	h := crc64.New(weightsCRCTable)
	var b [8]byte
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		binary.LittleEndian.PutUint64(b[:], uint64(p.W.Rows))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(p.W.Cols))
		h.Write(b[:])
		// Batched, but byte-identical to the original per-element
		// writes: checksums persisted in existing artifacts stay valid.
		hashFloat64s(h, p.W.Data)
	}
	return h.Sum64()
}

// hashChunk is the staging-buffer size (in 8-byte words) for the
// batched hash helpers: large enough that per-Write call overhead
// vanishes against Table-I-scale matrices, small enough to live on
// the stack.
const hashChunk = 512

// hashFloat64s writes the IEEE-754 bit patterns of xs to h in order,
// batched through a fixed buffer. The byte stream is identical to
// writing each value individually.
func hashFloat64s(h io.Writer, xs []float64) {
	var buf [hashChunk * 8]byte
	for len(xs) > 0 {
		n := min(len(xs), hashChunk)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		h.Write(buf[:n*8])
		xs = xs[n:]
	}
}

// Sanity caps on checkpoint-declared architecture, enforced by
// LoadModel before any allocation sized by the metadata. They bound a
// reload's memory exposure to corrupted (or hostile) checkpoint files
// without constraining any realistic model.
const (
	maxCheckpointDim    = 1 << 20 // per-dimension cap (features, hidden, classes)
	maxCheckpointLayers = 1 << 10
	maxCheckpointParams = 1 << 28 // ~2 GiB of float64 weights
)

// ErrNonFinite is what Save and every load return, wrapped with the
// parameter's name and flat index, for a NaN or ±Inf weight.
var ErrNonFinite = errors.New("core: non-finite weight")

// checkFinite is the one check Save and restore share, so whatever
// loads also saves.
func checkFinite(name string, w []float64) error {
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s[%d] = %v", ErrNonFinite, name, i, v)
		}
	}
	return nil
}

// CheckFinite reports the model's first NaN or ±Inf weight as
// ErrNonFinite, wrapped as Save and every load wrap it: the check
// Save runs, for callers that take a model in memory.
func (m *Model) CheckFinite() error {
	for _, p := range m.Params() {
		if err := checkFinite(p.Name, p.W.Data); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the model's trainable parameters and architecture
// metadata to w in gob format, or nothing on a non-finite weight.
// Optimizer state is not saved; resumed training restarts Adam's
// moment estimates.
func (m *Model) Save(w io.Writer) error {
	if err := m.CheckFinite(); err != nil {
		return err
	}
	ps, arch := m.Params(), m.ArchMeta()
	ck := checkpoint{
		Version:      checkpointVersion,
		ModelVersion: arch.ModelVersion,
		InDim:        arch.InDim,
		Classes:      arch.Classes,
		MultiLabel:   arch.MultiLabel,
		Aggregator:   arch.Aggregator,
		Layers:       arch.Layers,
		Hidden:       arch.Hidden,
	}
	for _, p := range ps {
		ck.Names = append(ck.Names, p.Name)
		ck.Rows = append(ck.Rows, p.W.Rows)
		ck.Cols = append(ck.Cols, p.W.Cols)
		data := make([]float64, len(p.W.Data))
		copy(data, p.W.Data)
		ck.Data = append(ck.Data, data)
	}
	return gob.NewEncoder(w).Encode(ck)
}

// Load restores trainable parameters previously written by Save into
// a model of identical architecture. It fails loudly on any shape or
// ordering mismatch, or v2 metadata other than m's (matchArch), rather
// than silently mis-assigning weights, and leaves them untouched then.
func (m *Model) Load(r io.Reader) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if ck.Version < 1 || ck.Version > checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want 1..%d", ck.Version, checkpointVersion)
	}
	if ck.Version >= 2 {
		if err := m.matchArch(&ck); err != nil {
			return err
		}
	}
	return m.restore(&ck)
}

// matchArch names the first field of ArchMeta but ModelVersion where
// the v2 checkpoint ck differs from m (an unnamed aggregator is mean).
func (m *Model) matchArch(ck *checkpoint) error {
	want, got := reflect.ValueOf(m.ArchMeta()), reflect.ValueOf(*ck)
	for i := 1; i < want.NumField(); i++ { // field 0 is ModelVersion
		f := want.Type().Field(i)
		w, g := want.Field(i).Interface(), got.FieldByName(f.Name).Interface()
		if g != w && !(f.Name == "Aggregator" && g == "") {
			return fmt.Errorf("core: checkpoint %s is %#v, the model's is %#v", f.Tag.Get("json"), g, w)
		}
	}
	return nil
}

// restore copies checkpoint tensors into m after verifying shapes and
// finiteness. Every length is checked before any index: a corrupted or
// truncated checkpoint must fail with an error, never panic or
// silently short-copy weights.
func (m *Model) restore(ck *checkpoint) error {
	ps := m.Params()
	if len(ps) != len(ck.Names) {
		return fmt.Errorf("core: checkpoint has %d tensors, model has %d", len(ck.Names), len(ps))
	}
	if len(ck.Rows) != len(ck.Names) || len(ck.Cols) != len(ck.Names) || len(ck.Data) != len(ck.Names) {
		return fmt.Errorf("core: checkpoint metadata inconsistent: %d names, %d rows, %d cols, %d tensors",
			len(ck.Names), len(ck.Rows), len(ck.Cols), len(ck.Data))
	}
	for i, p := range ps {
		if p.Name != ck.Names[i] {
			return fmt.Errorf("core: tensor %d is %q in checkpoint, %q in model", i, ck.Names[i], p.Name)
		}
		if p.W.Rows != ck.Rows[i] || p.W.Cols != ck.Cols[i] {
			return fmt.Errorf("core: tensor %q shape %dx%d in checkpoint, %dx%d in model",
				p.Name, ck.Rows[i], ck.Cols[i], p.W.Rows, p.W.Cols)
		}
		if len(ck.Data[i]) != ck.Rows[i]*ck.Cols[i] {
			return fmt.Errorf("core: tensor %q carries %d values for a %dx%d shape",
				p.Name, len(ck.Data[i]), ck.Rows[i], ck.Cols[i])
		}
		if err := checkFinite(p.Name, ck.Data[i]); err != nil {
			return err
		}
	}
	for i, p := range ps {
		copy(p.W.Data, ck.Data[i])
	}
	m.ModelVersion = ck.ModelVersion
	return nil
}

// LoadModel reconstructs a model purely from a format-v2 checkpoint —
// architecture metadata plus weights — so that a serving process does
// not need the training-time dataset object to shape the network.
func LoadModel(r io.Reader) (*Model, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if ck.Version < 2 {
		return nil, fmt.Errorf("core: checkpoint version %d has no architecture metadata (need >= 2)", ck.Version)
	}
	if ck.InDim <= 0 || ck.Classes <= 0 || ck.Layers <= 0 || ck.Hidden <= 0 {
		return nil, fmt.Errorf("core: checkpoint metadata invalid (in=%d classes=%d layers=%d hidden=%d)",
			ck.InDim, ck.Classes, ck.Layers, ck.Hidden)
	}
	if ck.InDim > maxCheckpointDim || ck.Classes > maxCheckpointDim ||
		ck.Hidden > maxCheckpointDim || ck.Layers > maxCheckpointLayers {
		return nil, fmt.Errorf("core: checkpoint metadata out of bounds (in=%d classes=%d layers=%d hidden=%d, caps %d/%d)",
			ck.InDim, ck.Classes, ck.Layers, ck.Hidden, maxCheckpointDim, maxCheckpointLayers)
	}
	if total := (int64(ck.InDim) + int64(ck.Hidden)*2*int64(ck.Layers) + int64(ck.Classes)) * 2 * int64(ck.Hidden); total > maxCheckpointParams {
		return nil, fmt.Errorf("core: checkpoint declares ~%d parameters, cap %d", total, int64(maxCheckpointParams))
	}
	if ck.Aggregator != "" && ck.Aggregator != "mean" {
		return nil, fmt.Errorf("core: checkpoint aggregator is %q, the model's is \"mean\"", ck.Aggregator)
	}
	m := newModelArch(ck.InDim, ck.Classes, ck.MultiLabel,
		Config{Layers: ck.Layers, Hidden: ck.Hidden, Seed: 1})
	if err := m.restore(&ck); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadModelFile is LoadModel over a checkpoint file.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// SaveFile writes a checkpoint to path (created or truncated).
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Save(f)
}

// LoadFile restores a checkpoint from path.
func (m *Model) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Load(f)
}
