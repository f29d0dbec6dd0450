package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gsgcn/internal/mat"
)

// quantSnapshot derives a dtype-carrying snapshot from testSnapshot,
// training the quantized payload exactly as the serving layer would.
func quantSnapshot(n, dim int, dtype mat.Dtype, withIndex bool) *Snapshot {
	s := testSnapshot(n, dim, withIndex)
	s.Dtype = dtype
	switch dtype {
	case mat.DtypeF32:
		s.F32 = mat.ToF32(s.Emb, 2)
	case mat.DtypeI8PQ:
		s.PQ = mat.TrainPQ(s.Emb, mat.ResolvePQ(n, dim), 2)
	}
	return s
}

// writeArt writes the snapshot to a temp artifact file.
func writeArt(t *testing.T, s *Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.art")
	if _, err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// sectionSpan locates a section's absolute byte range within an
// encoded artifact by re-parsing the header — the test-side mirror of
// the decoder's own arithmetic.
func sectionSpan(t *testing.T, blob []byte, name string) (int, int) {
	t.Helper()
	hlen := int(binary.LittleEndian.Uint32(blob[12:16]))
	var hdr headerV2
	if err := json.Unmarshal(blob[16:16+hlen], &hdr); err != nil {
		t.Fatal(err)
	}
	base := align8(16 + hlen)
	for _, s := range hdr.Sections {
		if s.Name == name {
			return base + int(s.Off), base + int(s.Off+s.Len)
		}
	}
	t.Fatalf("no section %q", name)
	return 0, 0
}

// TestV2DtypeRoundTrip pins the quantized payloads through the
// copying decoder: bit-identical f32/centroid/code payloads, dtype
// preserved, and a canonical re-encode that reproduces the file.
func TestV2DtypeRoundTrip(t *testing.T) {
	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ} {
		s := quantSnapshot(150, 12, dtype, true)
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dtype != dtype {
			t.Fatalf("dtype %v round-tripped as %v", dtype, got.Dtype)
		}
		switch dtype {
		case mat.DtypeF64:
			if got.F32 != nil || got.PQ != nil {
				t.Fatal("f64 artifact grew a quantized payload")
			}
		case mat.DtypeF32:
			for i := range s.F32.Data {
				if math.Float32bits(got.F32.Data[i]) != math.Float32bits(s.F32.Data[i]) {
					t.Fatalf("f32 element %d differs", i)
				}
			}
		case mat.DtypeI8PQ:
			if got.PQ.Params != s.PQ.Params {
				t.Fatalf("pq params %+v, want %+v", got.PQ.Params, s.PQ.Params)
			}
			for i := range s.PQ.Centroids {
				if math.Float64bits(got.PQ.Centroids[i]) != math.Float64bits(s.PQ.Centroids[i]) {
					t.Fatalf("centroid element %d differs", i)
				}
			}
			if !bytes.Equal(got.PQ.Codes, s.PQ.Codes) {
				t.Fatal("codes differ")
			}
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, blob) {
			t.Fatalf("dtype %v: decode+encode does not reproduce the bytes", dtype)
		}
	}
}

// encodeV1 writes the retired single-blob layout — the bytes a PR 4–9
// binary would have produced — so the rejection is tested against the
// real old format.
func encodeV1(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	hdr, err := json.Marshal(s.Meta)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[8:12], 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	buf = append(buf, f64Bytes(s.Emb.Data)...)
	buf = append(buf, f64Bytes(s.Norms)...)
	var idx []byte
	if s.Index != nil {
		idx = s.Index.EncodeBinary()
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx)))
	buf = append(buf, idx...)
	return binary.LittleEndian.AppendUint64(buf, crc64Sum(buf))
}

func crc64Sum(b []byte) uint64 { return crcChecksum(b) }

// TestV1RejectedCleanly pins the retirement of format 1: a valid v1
// blob (intact trailer, well-formed header and tables) is refused by
// both loaders with the typed version error — never decoded, never a
// panic.
func TestV1RejectedCleanly(t *testing.T) {
	blob := encodeV1(t, testSnapshot(90, 8, true))
	snap, err := Decode(blob)
	if snap != nil || err == nil || !strings.Contains(err.Error(), "artifact: format version 1, want 2") {
		t.Fatalf("Decode(v1) = %v, %v", snap, err)
	}
	path := filepath.Join(t.TempDir(), "v1.art")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := OpenMapped(path); err == nil {
		m.Close()
		t.Fatal("OpenMapped accepted a v1 artifact")
	}
	if _, _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("ReadFile(v1) error = %v", err)
	}
}

// TestMappedMatchesDecode is the mmap path's exactness contract: every
// accessor of a mapped artifact is bit-identical to the copying
// decoder's output — table rows, norms, quantized payloads, index
// encoding and checksum.
func TestMappedMatchesDecode(t *testing.T) {
	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ} {
		s := quantSnapshot(130, 16, dtype, true)
		path := writeArt(t, s)
		snap, sum, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Meta() != snap.Meta || m.Dtype() != dtype {
			t.Fatalf("dtype %v: mapped meta %+v dtype %v", dtype, m.Meta(), m.Dtype())
		}
		if m.Sum() != sum {
			t.Fatalf("dtype %v: mapped sum %016x, file sum %016x", dtype, m.Sum(), sum)
		}
		tbl := m.Table()
		if tbl.NumRows() != snap.Emb.Rows || tbl.NumCols() != snap.Emb.Cols {
			t.Fatalf("dtype %v: mapped table %dx%d", dtype, tbl.NumRows(), tbl.NumCols())
		}
		for v := 0; v < snap.Emb.Rows; v++ {
			row, want := tbl.Row(v), snap.Emb.Row(v)
			for j := range want {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
					t.Fatalf("dtype %v: mapped row %d col %d differs", dtype, v, j)
				}
			}
		}
		for v := range snap.Norms {
			if math.Float64bits(m.Norms()[v]) != math.Float64bits(snap.Norms[v]) {
				t.Fatalf("dtype %v: mapped norm %d differs", dtype, v)
			}
		}
		switch dtype {
		case mat.DtypeF32:
			for i := range snap.F32.Data {
				if math.Float32bits(m.F32().Data[i]) != math.Float32bits(snap.F32.Data[i]) {
					t.Fatalf("mapped f32 element %d differs", i)
				}
			}
		case mat.DtypeI8PQ:
			if m.PQ().Params != snap.PQ.Params || !bytes.Equal(m.PQ().Codes, snap.PQ.Codes) {
				t.Fatal("mapped pq payload differs")
			}
			for i := range snap.PQ.Centroids {
				if math.Float64bits(m.PQ().Centroids[i]) != math.Float64bits(snap.PQ.Centroids[i]) {
					t.Fatalf("mapped centroid %d differs", i)
				}
			}
		}
		if m.Index() == nil || !bytes.Equal(m.Index().EncodeBinary(), snap.Index.EncodeBinary()) {
			t.Fatalf("dtype %v: mapped index differs from decoded", dtype)
		}
		if m.MappedBytes() <= 0 {
			t.Fatal("MappedBytes not positive")
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("second Close not idempotent: %v", err)
		}
	}
}

// TestMappedLazyEmbCRC pins the deferred-integrity design: a corrupt
// embedding section does NOT fail the open (its CRC is deferred so
// opening never touches the big section), ValidateSection reports the
// damage, and the first row read panics rather than serve wrong
// floats.
func TestMappedLazyEmbCRC(t *testing.T) {
	s := testSnapshot(60, 8, false)
	path := writeArt(t, s)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := sectionSpan(t, blob, secEmb)
	blob[lo+9] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("open should defer the emb CRC, got %v", err)
	}
	defer m.Close()
	if err := m.ValidateSection(secEmb); err == nil {
		t.Fatal("corrupt emb section validated")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a corrupt mapped row did not panic")
		}
	}()
	_ = m.Table().Row(0)
}

// TestMappedEagerSectionCRC: damage to any small section (norms,
// codebook, codes, index) must fail OpenMapped outright.
func TestMappedEagerSectionCRC(t *testing.T) {
	for _, name := range []string{secNorms, secPQCent, secPQCodes, secIndex} {
		s := quantSnapshot(80, 8, mat.DtypeI8PQ, true)
		path := writeArt(t, s)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := sectionSpan(t, blob, name)
		blob[lo+(hi-lo)/2] ^= 0x01
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenMapped(path); err == nil {
			m.Close()
			t.Fatalf("corrupt %q section mapped cleanly", name)
		}
	}
}
