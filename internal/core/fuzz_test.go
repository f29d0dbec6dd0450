package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

// fuzzModel is a freshly initialized model of the fuzz seed's
// architecture: 5 features, 3 single-label classes, two layers of 4.
func fuzzModel() *Model {
	return newModelArch(5, 3, false, Config{Layers: 2, Hidden: 4, Workers: 1, Seed: 3})
}

// fuzzCheckpointBytes serializes fuzzModel — the honest corpus seed
// every mutation starts from.
func fuzzCheckpointBytes(tb interface{ Fatal(...any) }) []byte {
	m := fuzzModel()
	m.ModelVersion = 7
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withWeight returns the checkpoint bytes valid with weight 2 of its
// second tensor set to v: a checkpoint sound in every field but one
// weight.
func withWeight(tb interface{ Fatal(...any) }, valid []byte, v float64) []byte {
	return edited(tb, valid, func(ck *checkpoint) { ck.Data[1][2] = v })
}

// edited returns the checkpoint bytes valid re-encoded after edit.
func edited(tb interface{ Fatal(...any) }, valid []byte, edit func(*checkpoint)) []byte {
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&ck); err != nil {
		tb.Fatal(err)
	}
	edit(&ck)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel drives both checkpoint loaders with truncated,
// bit-flipped, metadata-corrupted and wrong-magic inputs. The
// contract under fuzzing: LoadModel either returns a usable model or
// an error — it never panics, and it never allocates unboundedly from
// attacker-controlled metadata (the dim caps in LoadModel are what
// keep a 50-byte input from declaring a 2^60-weight architecture);
// Model.Load into a model of the seed's shape never panics, and an
// error leaves its weights as they were.
func FuzzLoadModel(f *testing.F) {
	valid := fuzzCheckpointBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])       // truncated mid-stream
	f.Add(valid[:10])                 // truncated inside the header
	f.Add([]byte{})                   // empty
	f.Add([]byte("not a gob stream")) // wrong magic entirely

	// Flipped version field and metadata-inconsistent variants.
	corrupt := append([]byte(nil), valid...)
	for i := 20; i < 40 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xFF
	}
	f.Add(corrupt)

	// A structurally valid gob whose declared dims are absurd.
	var absurd bytes.Buffer
	_ = gob.NewEncoder(&absurd).Encode(checkpoint{
		Version: 2, InDim: 1 << 19, Classes: 1 << 19,
		Hidden: 1 << 19, Layers: 1 << 9,
	})
	f.Add(absurd.Bytes())

	// Mismatched tensor metadata lengths (Names longer than Rows).
	var mismatch bytes.Buffer
	_ = gob.NewEncoder(&mismatch).Encode(checkpoint{
		Version: 2, InDim: 5, Classes: 3, Hidden: 4, Layers: 2,
		Names: []string{"a", "b", "c"}, Rows: []int{1}, Cols: []int{1},
		Data: [][]float64{{1}},
	})
	f.Add(mismatch.Bytes())

	// One NaN weight in an otherwise sound checkpoint (ErrNonFinite).
	f.Add(withWeight(f, valid, math.NaN()))

	// Sound checkpoints naming an aggregator other than the mean.
	for _, agg := range []string{"sym", "sum"} {
		f.Add(edited(f, valid, func(ck *checkpoint) { ck.Aggregator = agg }))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		into := fuzzModel()
		before := into.WeightsChecksum()
		if err := into.Load(bytes.NewReader(data)); err != nil && into.WeightsChecksum() != before {
			t.Fatalf("Load refused the input (%v) but changed the weights", err)
		}

		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside a model", err)
			}
			return
		}
		// A nil-error load must hand back a coherent, usable model.
		if m == nil {
			t.Fatal("nil model with nil error")
		}
		if len(m.Layers) == 0 || m.Head == nil || m.Loss == nil {
			t.Fatalf("loaded model incomplete: %+v", m)
		}
		if m.NumParams() <= 0 {
			t.Fatal("loaded model has no parameters")
		}
		// Round-trip: a loadable model must save and reload cleanly.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-load of re-saved model failed: %v", err)
		}
	})
}

// TestLoadModelRejectsCorruptMetadata pins the loaders' hardening as
// plain unit tests (the fuzz seeds above, asserted explicitly) so the
// guarantees hold in ordinary `go test` runs too: LoadModel and
// Model.Load, into a model of the seed's shape, refuse every case, and
// a refused Model.Load leaves the weights as they were.
func TestLoadModelRejectsCorruptMetadata(t *testing.T) {
	valid := fuzzCheckpointBytes(t)
	if _, err := LoadModel(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	encode := func(ck checkpoint) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", valid[:10]},
		{"truncated-body", valid[:len(valid)-30]},
		{"not-gob", []byte("definitely not a checkpoint")},
		{"v1-no-metadata", encode(checkpoint{Version: 1})},
		{"future-version", encode(checkpoint{Version: 99, InDim: 5, Classes: 3, Hidden: 4, Layers: 2})},
		{"zero-dims", encode(checkpoint{Version: 2})},
		{"negative-dims", encode(checkpoint{Version: 2, InDim: -5, Classes: 3, Hidden: 4, Layers: 2})},
		{"absurd-dims", encode(checkpoint{Version: 2, InDim: 1 << 30, Classes: 3, Hidden: 4, Layers: 2})},
		{"absurd-total", encode(checkpoint{Version: 2, InDim: 1 << 19, Classes: 1 << 19, Hidden: 1 << 19, Layers: 1 << 9})},
		{"bad-aggregator", encode(checkpoint{Version: 2, InDim: 5, Classes: 3, Hidden: 4, Layers: 2, Aggregator: "median"})},
		{"sym-aggregator", edited(t, valid, func(ck *checkpoint) { ck.Aggregator = "sym" })},
		{"sum-aggregator", edited(t, valid, func(ck *checkpoint) { ck.Aggregator = "sum" })},
		{"tensor-length-mismatch", encode(checkpoint{
			Version: 2, InDim: 5, Classes: 3, Hidden: 4, Layers: 2,
			Names: []string{"a", "b"}, Rows: []int{1}, Cols: []int{1}, Data: [][]float64{{1}},
		})},
		{"nan-weight", withWeight(t, valid, math.NaN())},
		{"inf-weight", withWeight(t, valid, math.Inf(1))},
	}
	nonFinite := map[string]bool{"nan-weight": true, "inf-weight": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadModel(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt checkpoint accepted: %+v", m)
			}
			if m != nil {
				t.Fatalf("model returned alongside error %v", err)
			}
			if errors.Is(err, ErrNonFinite) != nonFinite[tc.name] {
				t.Fatalf("error %v: errors.Is(err, ErrNonFinite) = %v", err, !nonFinite[tc.name])
			}
			into := fuzzModel()
			before := into.WeightsChecksum()
			err = into.Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt checkpoint accepted by Model.Load")
			}
			if errors.Is(err, ErrNonFinite) != nonFinite[tc.name] {
				t.Fatalf("Model.Load error %v: errors.Is(err, ErrNonFinite) = %v", err, !nonFinite[tc.name])
			}
			if into.WeightsChecksum() != before {
				t.Fatal("a refused Model.Load changed the weights")
			}
		})
	}
}

// TestLoadModelRejectsShortTensorData covers the silent-short-copy
// hazard: a checkpoint whose declared shapes match the model but
// whose data slices are shorter must be rejected, not half-applied.
func TestLoadModelRejectsShortTensorData(t *testing.T) {
	valid := fuzzCheckpointBytes(t)
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	ck.Data[0] = ck.Data[0][:1]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("short tensor data accepted")
	}
}
