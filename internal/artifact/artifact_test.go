package artifact

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gsgcn/internal/ann"
	"gsgcn/internal/core"
	"gsgcn/internal/mat"
)

// testSnapshot builds a structurally honest snapshot: a seeded
// embedding table, exact norms and a real HNSW index over it.
func testSnapshot(n, dim int, withIndex bool) *Snapshot {
	emb := mat.New(n, dim)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range emb.Data {
		x = x*6364136223846793005 + 1442695040888963407
		emb.Data[i] = float64(int64(x>>11))/float64(1<<52) - 1
	}
	norms := make([]float64, n)
	for v := 0; v < n; v++ {
		row := emb.Row(v)
		norms[v] = math.Sqrt(mat.Dot(row, row))
	}
	s := &Snapshot{
		Meta: Meta{
			Arch: core.ArchMeta{
				ModelVersion: 42, InDim: 7, Classes: 3,
				Aggregator: "mean", Layers: 2, Hidden: dim / 4,
			},
			Vertices: n, Edges: int64(4 * n), FeatureDim: 7, Dim: dim,
		},
		Emb:   emb,
		Norms: norms,
	}
	if withIndex {
		s.Index = ann.Build(emb, norms, ann.Params{M: 8}, 2)
	}
	return s
}

// snapshotOf rebuilds the Snapshot a File was encoded from, copying
// the rows out through the table so it works on either byte source.
func snapshotOf(f *File) *Snapshot {
	tbl := f.Table()
	emb := mat.New(tbl.NumRows(), tbl.NumCols())
	for i := 0; i < emb.Rows; i++ {
		copy(emb.Row(i), tbl.Row(i))
	}
	return &Snapshot{Meta: f.Meta(), Emb: emb, Norms: f.Norms(), Index: f.Index(),
		Dtype: f.Dtype(), F32: f.F32(), PQ: f.PQ()}
}

// TestRoundTrip pins the warm-start contract: a decoded artifact is
// bit-identical to what was encoded — embedding bytes, norms, meta and
// index encoding all equal — and re-encoding reproduces the file
// byte-for-byte.
func TestRoundTrip(t *testing.T) {
	for _, withIndex := range []bool{true, false} {
		s := testSnapshot(300, 16, withIndex)
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		file, err := Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		got := snapshotOf(file)
		if got.Meta != s.Meta {
			t.Fatalf("meta round-trip: got %+v, want %+v", got.Meta, s.Meta)
		}
		if got.Emb.Rows != s.Emb.Rows || got.Emb.Cols != s.Emb.Cols {
			t.Fatalf("table shape %dx%d, want %dx%d", got.Emb.Rows, got.Emb.Cols, s.Emb.Rows, s.Emb.Cols)
		}
		for i, x := range s.Emb.Data {
			if math.Float64bits(got.Emb.Data[i]) != math.Float64bits(x) {
				t.Fatalf("embedding element %d: %x, want %x", i, got.Emb.Data[i], x)
			}
		}
		for v, x := range s.Norms {
			if math.Float64bits(got.Norms[v]) != math.Float64bits(x) {
				t.Fatalf("norm %d: %x, want %x", v, got.Norms[v], x)
			}
		}
		if withIndex {
			if got.Index == nil {
				t.Fatal("index lost in round-trip")
			}
			if !bytes.Equal(got.Index.EncodeBinary(), s.Index.EncodeBinary()) {
				t.Fatal("decoded index is not byte-equal to the encoded one")
			}
		} else if got.Index != nil {
			t.Fatal("index materialized from an index-free artifact")
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, blob) {
			t.Fatal("decode+encode does not reproduce the artifact bytes")
		}
		// A caller's slice off the 8-byte grid is copied once, then
		// read the same way.
		odd, err := Decode(append([]byte{0}, blob...)[1:])
		if err != nil {
			t.Fatal(err)
		}
		if re, err := Encode(snapshotOf(odd)); err != nil || !bytes.Equal(re, blob) {
			t.Fatalf("misaligned decode+encode does not reproduce the artifact bytes (%v)", err)
		}
	}
}

// TestFileRoundTrip exercises the atomic file path plus the manifest
// sidecar.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.art")
	s := testSnapshot(120, 8, true)
	sum, err := WriteFile(path, s)
	if err != nil {
		t.Fatal(err)
	}
	file, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotSum := snapshotOf(file), file.Sum()
	if gotSum != sum {
		t.Fatalf("checksum %016x from read, %016x from write", gotSum, sum)
	}
	if tr, err := Trailer(path); err != nil || tr != sum {
		t.Fatalf("Trailer = %016x, %v; want %016x", tr, err, sum)
	}
	if got.Meta != s.Meta || got.Index == nil {
		t.Fatalf("file round-trip mangled the snapshot: %+v", got.Meta)
	}

	mfPath, err := WriteManifest(path, "m.ckpt", s, sum)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mfPath)
	if err != nil {
		t.Fatal(err)
	}
	var mf Manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if mf.Meta != s.Meta || mf.Checkpoint != "m.ckpt" || mf.IndexChecksum == "" {
		t.Fatalf("manifest incomplete: %+v", mf)
	}
}

// TestDecodeRejectsCorruption drives the decoder with damaged
// artifacts: every case must fail with a clean error.
func TestDecodeRejectsCorruption(t *testing.T) {
	s := testSnapshot(100, 8, true)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}

	reseal := func(mutate func(b []byte) []byte) []byte {
		// Mutate the body, then restore a valid trailer so the case
		// tests structural validation, not just the checksum.
		b := mutate(append([]byte(nil), blob[:len(blob)-8]...))
		return binary.LittleEndian.AppendUint64(b, crcChecksum(b))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"too-short", blob[:4]},
		{"truncated", blob[:len(blob)/2]},
		{"bit-flip", func() []byte {
			b := append([]byte(nil), blob...)
			b[len(b)/2] ^= 1
			return b
		}()},
		{"trailer-flip", func() []byte {
			b := append([]byte(nil), blob...)
			b[len(b)-1] ^= 1
			return b
		}()},
		{"bad-magic", reseal(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"future-version", reseal(func(b []byte) []byte { b[8] = 99; return b })},
		{"header-overrun", reseal(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 1<<24)
			return b
		})},
		{"header-not-json", reseal(func(b []byte) []byte { b[16] = '!'; return b })},
		{"body-truncated-resealed", reseal(func(b []byte) []byte { return b[:len(b)-64] })},
		{"absurd-vertices", func() []byte {
			abs := *s
			abs.Meta.Vertices = maxVertices + 1
			b, _ := json.Marshal(abs.Meta)
			out := append([]byte(nil), blob[:12]...)
			out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
			out = append(out, b...)
			return binary.LittleEndian.AppendUint64(out, crcChecksum(out))
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if snap, err := Decode(tc.data); err == nil {
				t.Fatalf("corrupt artifact accepted: %+v", snap.Meta())
			}
		})
	}
}

// TestEncodeRejectsInconsistentSnapshot covers the writer-side guards.
func TestEncodeRejectsInconsistentSnapshot(t *testing.T) {
	s := testSnapshot(50, 8, false)
	s.Meta.Vertices = 51
	if _, err := Encode(s); err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
	s = testSnapshot(50, 8, false)
	s.Norms = s.Norms[:10]
	if _, err := Encode(s); err == nil {
		t.Fatal("short norms accepted")
	}
}

func crcChecksum(b []byte) uint64 {
	return crc64.Checksum(b, crcTable)
}

// shardSnapshot derives a structurally honest sharded snapshot from a
// testSnapshot: rows rows of the table, labeled as one shard of a
// vertices-vertex fleet.
func shardSnapshot(rows, vertices, dim, shard, shards int, seed uint64) *Snapshot {
	s := testSnapshot(rows, dim, false)
	s.Meta.Vertices = vertices
	s.Meta.Shards = shards
	s.Meta.Shard = shard
	s.Meta.ShardSeed = seed
	s.Meta.ShardRows = rows
	return s
}

// TestShardMetaRoundTrip pins the sharded artifact format: the shard
// identity fields survive Encode/Decode exactly, and Decode accepts a
// well-formed shard file.
func TestShardMetaRoundTrip(t *testing.T) {
	s := shardSnapshot(40, 100, 8, 2, 4, 77)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	file, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotOf(file)
	if got.Meta != s.Meta {
		t.Fatalf("shard meta round-trip: got %+v, want %+v", got.Meta, s.Meta)
	}
	if got.Meta.Shards != 4 || got.Meta.Shard != 2 || got.Meta.ShardSeed != 77 || got.Meta.ShardRows != 40 {
		t.Fatalf("shard fields mangled: %+v", got.Meta)
	}
	if got.Emb.Rows != 40 {
		t.Fatalf("shard table has %d rows, want the owned 40, not the global 100", got.Emb.Rows)
	}
}

// TestShardMetaValidation drives validateShard through Encode: every
// internally inconsistent shard labeling must be rejected on the
// write side, before a bad file can exist.
func TestShardMetaValidation(t *testing.T) {
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"shard-out-of-range", shardSnapshot(40, 100, 8, 4, 4, 1)},
		{"negative-shard", shardSnapshot(40, 100, 8, -1, 4, 1)},
		{"negative-shards", func() *Snapshot {
			s := shardSnapshot(40, 100, 8, 0, 4, 1)
			s.Meta.Shards = -4
			return s
		}()},
		{"rows-exceed-vertices", shardSnapshot(101, 100, 8, 0, 4, 1)},
		{"rows-mismatch-table", func() *Snapshot {
			s := shardSnapshot(40, 100, 8, 0, 4, 1)
			s.Meta.ShardRows = 39
			return s
		}()},
		{"unsharded-with-shard-fields", func() *Snapshot {
			s := testSnapshot(40, 8, false)
			s.Meta.ShardSeed = 9
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Encode(tc.snap); err == nil {
				t.Fatalf("inconsistent shard meta accepted: %+v", tc.snap.Meta)
			}
		})
	}
}

// TestShardPathFormat pins the per-shard naming convention shared by
// gsgcn-index (writer) and the serving router (reader): the two sides
// only meet on disk, so the format is part of the artifact contract.
func TestShardPathFormat(t *testing.T) {
	if got, want := ShardPath("m.ckpt.art", 0, 4), "m.ckpt.art.s0of4"; got != want {
		t.Errorf("ShardPath = %q, want %q", got, want)
	}
	if got, want := ShardPath("/models/prod.art", 11, 16), "/models/prod.art.s11of16"; got != want {
		t.Errorf("ShardPath = %q, want %q", got, want)
	}
}

// TestUnshardedHeaderByteCompat pins backward compatibility: an
// unsharded snapshot's encoded header carries no shard keys at all
// (they are omitempty), so PR 4 artifacts and the files this release
// writes for unsharded models are byte-identical.
func TestUnshardedHeaderByteCompat(t *testing.T) {
	s := testSnapshot(50, 8, false)
	hdr, err := json.Marshal(s.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(hdr, []byte("shard")) {
		t.Fatalf("unsharded meta header mentions shards: %s", hdr)
	}
}
