package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"gsgcn/internal/mat"
)

// FuzzDecode drives the artifact loader with truncated, bit-flipped,
// resealed-after-mutation and synthetic inputs — the same contract as
// core.FuzzLoadModel: Decode either returns a coherent snapshot or an
// error, never panics, and never lets a small input demand a huge
// allocation (the header caps plus the bytes-actually-present checks).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			if file != nil {
				t.Fatalf("error %v returned alongside a file", err)
			}
			return
		}
		if file == nil {
			t.Fatal("nil file with nil error")
		}
		snap := snapshotOf(file)
		// A nil-error decode must hand back a self-consistent snapshot
		// that re-encodes to exactly the accepted bytes.
		rows := snap.Meta.rows()
		if snap.Emb.Rows != rows || snap.Emb.Cols != snap.Meta.Dim ||
			len(snap.Norms) != rows {
			t.Fatalf("inconsistent snapshot accepted: %+v", snap.Meta)
		}
		// Dtype/payload coherence: exactly the payload the dtype names,
		// shaped for the table.
		switch snap.Dtype {
		case mat.DtypeF64:
			if snap.F32 != nil || snap.PQ != nil {
				t.Fatal("f64 snapshot carries a quantized payload")
			}
		case mat.DtypeF32:
			if snap.PQ != nil || snap.F32 == nil || snap.F32.RowsN != rows || snap.F32.ColsN != snap.Meta.Dim {
				t.Fatalf("incoherent f32 payload accepted: %+v", snap.Meta)
			}
		case mat.DtypeI8PQ:
			if snap.F32 != nil || snap.PQ == nil || snap.PQ.Validate() != nil ||
				snap.PQ.RowsN != rows || snap.PQ.ColsN != snap.Meta.Dim {
				t.Fatalf("incoherent pq payload accepted: %+v", snap.Meta)
			}
		default:
			t.Fatalf("unknown dtype %v accepted", snap.Dtype)
		}
		// Round-trip: an accepted snapshot must re-encode and re-decode
		// cleanly (byte-for-byte stability over canonical encodings is
		// pinned separately in TestRoundTrip — a fuzzed header may use
		// non-canonical JSON).
		re, err := Encode(snap)
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		file2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		re2, err := Encode(snapshotOf(file2))
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if file2.Meta() != snap.Meta || !bytes.Equal(re2, re) {
			t.Fatal("re-encode is not stable")
		}
	})
}

// fuzzSeeds returns FuzzDecode's seed inputs: canonical encodings of
// every dtype, truncations, and structurally damaged files resealed
// under a valid trailer.
func fuzzSeeds() [][]byte {
	withIdx, _ := Encode(testSnapshot(80, 8, true))
	bare, _ := Encode(testSnapshot(40, 4, false))
	seeds := [][]byte{
		withIdx,
		bare,
		withIdx[:len(withIdx)/2], // truncated mid-table
		withIdx[:10],             // truncated inside the fixed header
		{},
		[]byte("not an artifact at all"),
	}

	// Structurally resealed corruptions: valid trailer, broken body.
	// The capacity cut makes the append copy: a truncation of a seed
	// must not overwrite that seed's tail.
	reseal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint64(b[:len(b):len(b)], crcChecksum(b))
	}
	flipped := append([]byte(nil), withIdx[:len(withIdx)-8]...)
	flipped[30] ^= 0xFF
	seeds = append(seeds, reseal(flipped))

	// A resealed header declaring an absurd table over 50 bytes.
	hdr, _ := json.Marshal(Meta{Vertices: 1 << 27, Dim: 1 << 19})
	absurd := append([]byte(magic), 1, 0, 0, 0)
	absurd = binary.LittleEndian.AppendUint32(absurd, uint32(len(hdr)))
	absurd = append(absurd, hdr...)
	seeds = append(seeds, reseal(absurd))

	// The quantized payload sections, valid and damaged: every dtype's
	// canonical encoding, a truncated codebook (sections no longer tile
	// the data area), a dim the section lengths no longer match, and a
	// section whose declared CRC disagrees with its bytes — all under a
	// valid trailer, so the per-section validation does the rejecting.
	f32Blob, _ := Encode(quantSnapshot(60, 8, mat.DtypeF32, true))
	pqBlob, _ := Encode(quantSnapshot(60, 8, mat.DtypeI8PQ, false))
	seeds = append(seeds, f32Blob)
	seeds = append(seeds, pqBlob)
	seeds = append(seeds, reseal(pqBlob[:len(pqBlob)-8-16])) // truncated codebook/codes tail
	dimSkew := append([]byte(nil), f32Blob[:len(f32Blob)-8]...)
	dimSkew = bytes.Replace(dimSkew, []byte(`"dim":8`), []byte(`"dim":9`), 1)
	seeds = append(seeds, reseal(dimSkew))
	crcSkew := append([]byte(nil), pqBlob[:len(pqBlob)-8]...)
	crcSkew[len(crcSkew)-3] ^= 0x08 // inside pq.codes, the last section
	seeds = append(seeds, reseal(crcSkew))
	// A retired v1 file: must be rejected cleanly.
	v1 := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(v1[8:12], 1)
	s1 := testSnapshot(20, 4, false)
	mhdr, _ := json.Marshal(s1.Meta)
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(mhdr)))
	v1 = append(v1, mhdr...)
	v1 = append(v1, f64Bytes(s1.Emb.Data)...)
	v1 = append(v1, f64Bytes(s1.Norms)...)
	v1 = binary.LittleEndian.AppendUint32(v1, 0)
	seeds = append(seeds, reseal(v1))

	return seeds
}
