package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
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

// TestV2DtypeRoundTrip pins the quantized payloads through Decode:
// bit-identical f32/centroid/code payloads, dtype preserved, and a
// canonical re-encode that reproduces the file.
func TestV2DtypeRoundTrip(t *testing.T) {
	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ} {
		s := quantSnapshot(150, 12, dtype, true)
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		file, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotOf(file)
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
// Decode and Open with the typed version error — never decoded, never
// a panic.
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
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Open(v1) error = %v", err)
	}
}

// TestSourcesAgreeOnCorpus is the one-parser contract, over every
// committed FuzzDecode corpus file and every FuzzDecode seed: Decode
// accepts exactly when the file-backed Open accepts and the trailer
// Decode verifies (and Open only reads) matches the body. Accepted
// inputs give the same meta, dtype and trailer, the same bits in every
// row, norm and quantized payload, and the same index checksum from
// both entries.
func TestSourcesAgreeOnCorpus(t *testing.T) {
	inputs := fuzzSeeds()
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", e.Name(), err)
		}
		inputs = append(inputs, []byte(data))
	}
	tmp := t.TempDir()
	accepted := map[mat.Dtype]int{}
	for i, data := range inputs {
		path := filepath.Join(tmp, fmt.Sprintf("%d.art", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		heap, herr := Decode(data)
		m, merr := Open(path)
		_, cerr := checksum(data)
		if (herr == nil) != (merr == nil && cerr == nil) {
			t.Fatalf("input %d: Decode error %v, Open error %v, trailer %v", i, herr, merr, cerr)
		}
		if herr == nil {
			accepted[heap.Dtype()]++
			sameFile(t, heap, m)
		}
		if m != nil {
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("second Close not idempotent: %v", err)
			}
		}
	}
	for _, dtype := range []mat.Dtype{mat.DtypeF64, mat.DtypeF32, mat.DtypeI8PQ} {
		if accepted[dtype] == 0 {
			t.Errorf("no input of dtype %v was accepted: the comparison never ran on it", dtype)
		}
	}
}

// sameFile fails unless a heap File and a mapped File of the same
// bytes agree bit for bit.
func sameFile(t *testing.T, heap, m *File) {
	t.Helper()
	if m.Meta() != heap.Meta() || m.Dtype() != heap.Dtype() || m.Sum() != heap.Sum() {
		t.Fatalf("mapped meta %+v dtype %v sum %016x, heap %+v %v %016x",
			m.Meta(), m.Dtype(), m.Sum(), heap.Meta(), heap.Dtype(), heap.Sum())
	}
	if m.MappedBytes() <= 0 || heap.MappedBytes() != 0 {
		t.Fatalf("mapped bytes %d (mapped), %d (heap)", m.MappedBytes(), heap.MappedBytes())
	}
	ht, mt := heap.Table(), m.Table()
	if mt.NumRows() != ht.NumRows() || mt.NumCols() != ht.NumCols() {
		t.Fatalf("mapped table %dx%d, heap %dx%d", mt.NumRows(), mt.NumCols(), ht.NumRows(), ht.NumCols())
	}
	for v := 0; v < ht.NumRows(); v++ {
		sameBits(t, "row", mt.Row(v), ht.Row(v))
	}
	sameBits(t, "norms", m.Norms(), heap.Norms())
	if (m.F32() == nil) != (heap.F32() == nil) || (m.PQ() == nil) != (heap.PQ() == nil) {
		t.Fatal("quantized payloads differ in presence")
	}
	if f := heap.F32(); f != nil {
		g := m.F32()
		if g.RowsN != f.RowsN || g.ColsN != f.ColsN || len(g.Data) != len(f.Data) {
			t.Fatal("f32 payload shapes differ")
		}
		for i := range f.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(f.Data[i]) {
				t.Fatalf("f32 element %d differs", i)
			}
		}
	}
	if p := heap.PQ(); p != nil {
		q := m.PQ()
		if q.Params != p.Params || q.RowsN != p.RowsN || q.ColsN != p.ColsN || !bytes.Equal(q.Codes, p.Codes) {
			t.Fatal("pq payload differs")
		}
		sameBits(t, "centroids", q.Centroids, p.Centroids)
	}
	if (m.Index() == nil) != (heap.Index() == nil) ||
		heap.Index() != nil && m.Index().Checksum() != heap.Index().Checksum() {
		t.Fatal("index differs between the sources")
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestMappedEagerSectionCRC: damage to any section (embedding table,
// norms, codebook, codes, index) must fail Open outright.
func TestMappedEagerSectionCRC(t *testing.T) {
	for _, name := range []string{secEmb, secNorms, secPQCent, secPQCodes, secIndex} {
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
		if m, err := Open(path); err == nil {
			m.Close()
			t.Fatalf("corrupt %q section mapped cleanly", name)
		}
	}
}
