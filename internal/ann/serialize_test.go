package ann

import (
	"bytes"
	"fmt"
	"testing"
)

// TestEncodeDecodeRoundTrip pins the persistence contract end to end:
// a decoded index is byte-equal to the one that was encoded, a rebuild
// over the same table encodes to the same bytes, the decoded links
// array is the built one, and decoded indexes answer every query
// identically to the original — the f64 walk and the f32 and i8pq
// walks, by ids and Float64bits.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	emb, _ := randTable(500, 16, 8, 11)
	built := Build(emb, nil, Params{M: 8, EfConstruction: 48}, 4)

	blob := built.EncodeBinary()
	if rebuilt := Build(emb, nil, Params{M: 8, EfConstruction: 48}, 1); !bytes.Equal(blob, rebuilt.EncodeBinary()) {
		t.Fatal("rebuild over the same table encodes to different bytes")
	}

	loaded, err := DecodeIndex(blob, emb, nil)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if !bytes.Equal(blob, loaded.EncodeBinary()) {
		t.Fatal("decoded index re-encodes to different bytes")
	}
	if built.Checksum() != loaded.Checksum() {
		t.Fatalf("checksum mismatch: built %x, loaded %x", built.Checksum(), loaded.Checksum())
	}
	if got, want := loaded.Params(), built.Params(); got != want {
		t.Fatalf("params round-trip: got %+v, want %+v", got, want)
	}

	if !indexEqual(built, loaded) {
		t.Fatal("decoded index holds a different links array than the built one")
	}
	qts := quantizers(emb)
	for _, v := range []int32{0, 1, 250, 499} {
		for name, qt := range qts {
			q, qn := emb.Row(int(v)), built.norms[v]
			requireSameBeam(t, fmt.Sprintf("%s walk from vertex %d", name, v),
				loaded.SearchQuant(qt, q, qn, 64, v), built.SearchQuant(qt, q, qn, 64, v))
		}
		want := built.SearchVertex(v, 10, 64)
		got := loaded.SearchVertex(v, 10, 64)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d results from loaded index, %d from built", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d result %d: loaded %+v, built %+v", v, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeIndexRejectsCorruption drives the decoder with damaged
// blobs: every case must fail with an error — no panic, no index over
// inconsistent structure.
func TestDecodeIndexRejectsCorruption(t *testing.T) {
	emb, _ := randTable(200, 8, 4, 5)
	ix := Build(emb, nil, Params{M: 6}, 2)
	blob := ix.EncodeBinary()
	if _, err := DecodeIndex(blob, emb, nil); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}

	flip := func(off int) []byte {
		b := append([]byte(nil), blob...)
		b[off] ^= 0xFF
		return b
	}
	otherTable, _ := randTable(150, 8, 4, 5)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short-header", blob[:20]},
		{"bad-magic", flip(0)},
		{"bad-version", flip(8)},
		{"zero-m", append(append([]byte(nil), blob[:12]...), append(make([]byte, 4), blob[16:]...)...)},
		{"truncated-nodes", blob[:len(blob)-5]},
		{"trailing-garbage", append(append([]byte(nil), blob...), 1, 2, 3)},
		{"corrupt-entry", flip(36)},
		{"corrupt-body", flip(60)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ix, err := DecodeIndex(tc.data, emb, nil); err == nil {
				// A body bit-flip can occasionally stay structurally
				// valid (e.g. reordering a link id to another in-range
				// id); the hard guarantee is byte-level: accept only if
				// it re-encodes to the input.
				if !bytes.Equal(tc.data, ix.EncodeBinary()) {
					t.Fatalf("corrupt blob %q accepted", tc.name)
				}
			}
		})
	}

	if _, err := DecodeIndex(blob, otherTable, nil); err == nil {
		t.Fatal("blob accepted against a table of the wrong size")
	}
}
