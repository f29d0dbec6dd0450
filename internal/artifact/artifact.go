// Package artifact implements the serving snapshot artifact: a
// versioned, checksummed binary file persisting the full-graph
// embedding table, its cosine norms and (optionally) the serialized
// deterministic HNSW index next to a v2 checkpoint. Producing one
// offline (cmd/gsgcn-index) converts a serving cold start from the
// O(|V|·f) layer-wise recompute plus a from-scratch index build into a
// disk read: because both the forward pass and the HNSW construction
// are bit-deterministic (packages serve and ann), a loaded artifact is
// byte-equal to what the server would have computed, making the warm
// path a zero-risk shortcut.
//
// Binary format (version 2), all integers little-endian:
//
//	[0:8]    magic "GSGCNART"
//	[8:12]   u32 format version
//	[12:16]  u32 header length H
//	[16:16+H]JSON headerV2: {meta, dtype, pq?, sections[]}
//	pad:     zero bytes to the next 8-byte boundary (the data base)
//	then:    the sections, each at its declared 8-aligned offset from
//	         the data base, zero-padded between as needed
//	trailer: u64 CRC-64/ECMA of every preceding byte
//
// Sections by name: "emb.f64" (rows*dim float64, row-major) and
// "norms.f64" (rows float64) are always present; "emb.f32" (rows*dim
// float32) rides with dtype f32; "pq.centroids" (packed float64
// codebook) and "pq.codes" (rows*M uint8) ride with dtype i8pq;
// "index" (ann.EncodeBinary output) is optional. Every section
// carries its own CRC-64 in the header, so a mapped reader validates
// the bytes it serves from without a second pass for the trailer. The
// 8-byte alignment is what lets the one reader, File, cast float
// sections in place instead of copying them, whether its bytes are a
// mapping (Open) or a buffer in memory (Decode).
//
// Any other format version — including the retired version 1 (the
// PR 4–9 single-blob layout) — is rejected with a typed error; a
// serving engine then falls back to its cold compute.
package artifact

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"

	"gsgcn/internal/ann"
	"gsgcn/internal/core"
	"gsgcn/internal/mat"
)

const (
	magic = "GSGCNART"
	// formatVersion is the one format Encode writes and Decode reads.
	formatVersion = 2

	// maxHeaderLen caps the JSON header a decoder will buffer.
	maxHeaderLen = 1 << 20
	// maxSections caps the section table a v2 header may declare (the
	// format defines six names; headroom for one future addition).
	maxSections = 8
	// maxPQIters caps the iteration count a header may claim — pure
	// metadata, but an insane value marks a corrupt header.
	maxPQIters = 1 << 20
	// maxVertices and maxDim cap the table shape a header may declare,
	// mirroring core's checkpoint caps: far above any real deployment,
	// low enough that a handful of header bytes cannot demand
	// gigabytes. The true allocation bound is the blob length itself —
	// both row count and width are cross-checked against the bytes
	// actually present before anything is allocated.
	maxVertices = 1 << 28
	maxDim      = 1 << 20
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta identifies what an artifact was computed from. An artifact may
// only stand in for a fresh compute when every field matches the
// serving process's checkpoint (Arch, including ModelVersion) and
// dataset (Vertices, Edges, FeatureDim): embeddings are a pure
// function of (weights, graph, features), so any mismatch means the
// tables could be stale.
type Meta struct {
	Arch core.ArchMeta `json:"arch"`
	// WeightsSum is core.Model.WeightsChecksum() of the producing
	// model: the content hash that catches retrained weights whose
	// step count (Arch.ModelVersion) happens to collide.
	WeightsSum uint64 `json:"weights_sum"`
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
	FeatureDim int    `json:"feature_dim"`
	Dim        int    `json:"dim"`

	// Shards/Shard/ShardSeed identify a vertex-sharded artifact: this
	// file carries only the embedding rows owned by shard Shard of a
	// Shards-way split under ShardSeed (partition.ShardMap), stored in
	// ascending owned-id order. ShardRows is the owned-row count — the
	// actual table height of this file; Vertices stays the full graph's
	// vertex count. Zero Shards means an unsharded full table (the PR 4
	// format, byte-identical: the fields marshal away under omitempty).
	Shards    int    `json:"shards,omitempty"`
	Shard     int    `json:"shard,omitempty"`
	ShardSeed uint64 `json:"shard_seed,omitempty"`
	ShardRows int    `json:"shard_rows,omitempty"`
}

// rows returns the embedding-table height this meta declares: the
// owned-row count for a shard artifact, the full vertex count
// otherwise.
func (m Meta) rows() int {
	if m.Shards > 0 {
		return m.ShardRows
	}
	return m.Vertices
}

// validateShard checks the shard fields' internal consistency.
func (m Meta) validateShard() error {
	if m.Shards == 0 {
		if m.Shard != 0 || m.ShardSeed != 0 || m.ShardRows != 0 {
			return fmt.Errorf("artifact: unsharded meta carries shard fields %d/%d/%d", m.Shard, m.ShardSeed, m.ShardRows)
		}
		return nil
	}
	if m.Shards < 0 || m.Shard < 0 || m.Shard >= m.Shards {
		return fmt.Errorf("artifact: shard %d of %d is out of range", m.Shard, m.Shards)
	}
	if m.ShardRows < 0 || m.ShardRows > m.Vertices {
		return fmt.Errorf("artifact: shard declares %d rows of %d vertices", m.ShardRows, m.Vertices)
	}
	return nil
}

// Snapshot is what Encode writes: the precomputed serving tables plus
// the metadata to validate them against a checkpoint and dataset.
// Index is nil when the artifact is written without one.
type Snapshot struct {
	Meta  Meta
	Emb   *mat.Dense
	Norms []float64
	Index *ann.Index

	// Dtype is the resident representation this artifact was built
	// for. The f64 tables above are always present — exact answers
	// read them regardless of dtype — while F32 or PQ carry the
	// quantized scan payload matching Dtype (nil otherwise).
	Dtype mat.Dtype
	F32   *mat.F32Table
	PQ    *mat.PQTable
}

// Section names of the version-2 format.
const (
	secEmb     = "emb.f64"
	secNorms   = "norms.f64"
	secF32     = "emb.f32"
	secPQCent  = "pq.centroids"
	secPQCodes = "pq.codes"
	secIndex   = "index"
)

// headerV2 is the JSON header of a version-2 artifact. Field order is
// fixed by the struct, so encoding stays deterministic.
type headerV2 struct {
	Meta     Meta            `json:"meta"`
	Dtype    string          `json:"dtype"`
	PQ       *pqHeader       `json:"pq,omitempty"`
	Sections []sectionHeader `json:"sections"`
}

// pqHeader records the codebook configuration so a server can decide
// whether index-time codes match its own training parameters.
type pqHeader struct {
	M     int    `json:"m"`
	K     int    `json:"k"`
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
}

// sectionHeader locates one section. Off is relative to the data base
// (the 8-aligned end of the JSON header) and itself 8-aligned; CRC is
// CRC-64/ECMA over exactly the section's Len bytes.
type sectionHeader struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	CRC  uint64 `json:"crc"`
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// Encode serializes a snapshot. Deterministic: equal snapshots encode
// to equal bytes (Meta marshals with fixed field order, the tables and
// index are fixed-layout binary).
func Encode(s *Snapshot) ([]byte, error) {
	if err := s.Meta.validateShard(); err != nil {
		return nil, err
	}
	rows := s.Meta.rows()
	if s.Emb.Rows != rows || s.Emb.Cols != s.Meta.Dim {
		return nil, fmt.Errorf("artifact: table is %dx%d, meta declares %dx%d",
			s.Emb.Rows, s.Emb.Cols, rows, s.Meta.Dim)
	}
	if len(s.Norms) != rows {
		return nil, fmt.Errorf("artifact: %d norms for %d rows", len(s.Norms), rows)
	}
	// Assemble the section payloads in canonical order, then the
	// header that locates them.
	var secs []sectionHeader
	var blobs [][]byte
	addSec := func(name string, blob []byte) {
		off := 0
		if n := len(secs); n > 0 {
			off = align8(int(secs[n-1].Off + secs[n-1].Len))
		}
		secs = append(secs, sectionHeader{
			Name: name,
			Off:  int64(off),
			Len:  int64(len(blob)),
			CRC:  crc64.Checksum(blob, crcTable),
		})
		blobs = append(blobs, blob)
	}
	addSec(secEmb, f64Bytes(s.Emb.Data))
	addSec(secNorms, f64Bytes(s.Norms))
	var pq *pqHeader
	switch s.Dtype {
	case mat.DtypeF64:
		if s.F32 != nil || s.PQ != nil {
			return nil, fmt.Errorf("artifact: dtype f64 with quantized payload")
		}
	case mat.DtypeF32:
		if s.PQ != nil {
			return nil, fmt.Errorf("artifact: dtype f32 with pq payload")
		}
		if s.F32 == nil || s.F32.RowsN != rows || s.F32.ColsN != s.Meta.Dim {
			return nil, fmt.Errorf("artifact: dtype f32 needs a %dx%d f32 table", rows, s.Meta.Dim)
		}
		blob := make([]byte, 0, 4*len(s.F32.Data))
		for _, x := range s.F32.Data {
			blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(x))
		}
		addSec(secF32, blob)
	case mat.DtypeI8PQ:
		if s.F32 != nil {
			return nil, fmt.Errorf("artifact: dtype i8pq with f32 payload")
		}
		if s.PQ == nil || s.PQ.RowsN != rows || s.PQ.ColsN != s.Meta.Dim {
			return nil, fmt.Errorf("artifact: dtype i8pq needs a %dx%d pq table", rows, s.Meta.Dim)
		}
		if err := s.PQ.Validate(); err != nil {
			return nil, err
		}
		p := s.PQ.Params
		pq = &pqHeader{M: p.M, K: p.K, Iters: p.Iters, Seed: p.Seed}
		addSec(secPQCent, f64Bytes(s.PQ.Centroids))
		addSec(secPQCodes, s.PQ.Codes)
	default:
		return nil, fmt.Errorf("artifact: unknown dtype %v", s.Dtype)
	}
	if s.Index != nil {
		if s.Index.Len() != rows {
			return nil, fmt.Errorf("artifact: index covers %d rows, meta declares %d", s.Index.Len(), rows)
		}
		addSec(secIndex, s.Index.EncodeBinary())
	}
	header, err := json.Marshal(headerV2{
		Meta:     s.Meta,
		Dtype:    s.Dtype.String(),
		PQ:       pq,
		Sections: secs,
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding header: %w", err)
	}
	if len(header) > maxHeaderLen {
		return nil, fmt.Errorf("artifact: header is %d bytes, cap %d", len(header), maxHeaderLen)
	}
	base := align8(16 + len(header))
	last := secs[len(secs)-1]
	size := base + int(last.Off+last.Len) + 8
	buf := make([]byte, 0, size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(header)))
	buf = append(buf, header...)
	for i, sec := range secs {
		for len(buf) < base+int(sec.Off) {
			buf = append(buf, 0)
		}
		buf = append(buf, blobs[i]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	return buf, nil
}

// f64Bytes serializes a float64 slice little-endian.
func f64Bytes(xs []float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// checksum verifies the CRC-64/ECMA trailer every valid artifact
// carries over its preceding bytes and returns it.
func checksum(data []byte) (uint64, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("artifact: %d bytes is too short to carry a checksum", len(data))
	}
	body, trailer := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if got := crc64.Checksum(body, crcTable); got != trailer {
		return 0, fmt.Errorf("artifact: checksum mismatch (stored %016x, computed %016x) — file corrupt or truncated", trailer, got)
	}
	return trailer, nil
}

// parsedV2 is a validated v2 header: the metadata plus the located
// sections, lengths already cross-checked against the declared shape
// and the bytes actually present. Section CRCs are NOT yet verified —
// File.init checks them next.
type parsedV2 struct {
	meta  Meta
	dtype mat.Dtype
	pq    *pqHeader
	secs  map[string]sectionHeader
	// base is the absolute offset of the data area within the body.
	base int
}

// sec returns the named section's bytes within body.
func (p *parsedV2) sec(body []byte, name string) []byte {
	s := p.secs[name]
	off := p.base + int(s.Off)
	return body[off : off+int(s.Len)]
}

// parseV2 validates a v2 header against body (trailer stripped, magic
// and version already checked): meta caps, dtype coherence, and a
// section table whose every entry is named, unique, 8-aligned, sized
// exactly for the declared shape and fully contained in the data
// area. Nothing is allocated proportional to header claims.
func parseV2(body []byte) (*parsedV2, error) {
	hlen := int(binary.LittleEndian.Uint32(body[12:16]))
	if hlen > maxHeaderLen || 16+hlen > len(body) {
		return nil, fmt.Errorf("artifact: header declares %d bytes, %d available", hlen, len(body)-16)
	}
	var hdr headerV2
	if err := json.Unmarshal(body[16:16+hlen], &hdr); err != nil {
		return nil, fmt.Errorf("artifact: decoding header: %w", err)
	}
	meta := hdr.Meta
	if meta.Vertices < 0 || meta.Vertices > maxVertices || meta.Dim < 0 || meta.Dim > maxDim {
		return nil, fmt.Errorf("artifact: header declares a %dx%d table, caps %d/%d",
			meta.Vertices, meta.Dim, maxVertices, maxDim)
	}
	if err := meta.validateShard(); err != nil {
		return nil, err
	}
	dtype, err := mat.ParseDtype(hdr.Dtype)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	rows := meta.rows()
	base := align8(16 + hlen)
	dataLen := int64(len(body) - base)
	if dataLen < 0 {
		return nil, fmt.Errorf("artifact: header overruns the blob")
	}
	// The lengths each section must have, given the declared shape.
	want := map[string]int64{
		secEmb:   8 * int64(rows) * int64(meta.Dim),
		secNorms: 8 * int64(rows),
	}
	switch dtype {
	case mat.DtypeF32:
		if hdr.PQ != nil {
			return nil, fmt.Errorf("artifact: dtype f32 with pq header")
		}
		want[secF32] = 4 * int64(rows) * int64(meta.Dim)
	case mat.DtypeI8PQ:
		pq := hdr.PQ
		if pq == nil {
			return nil, fmt.Errorf("artifact: dtype i8pq without pq header")
		}
		if pq.M < 1 || pq.M > meta.Dim || pq.K < 1 || pq.K > 256 || pq.Iters < 0 || pq.Iters > maxPQIters {
			return nil, fmt.Errorf("artifact: pq header M=%d K=%d iters=%d invalid for dim %d", pq.M, pq.K, pq.Iters, meta.Dim)
		}
		want[secPQCent] = 8 * int64(mat.PQCentroidsLen(meta.Dim, pq.M, pq.K))
		want[secPQCodes] = int64(rows) * int64(pq.M)
	default:
		if hdr.PQ != nil {
			return nil, fmt.Errorf("artifact: dtype f64 with pq header")
		}
	}
	if len(hdr.Sections) > maxSections {
		return nil, fmt.Errorf("artifact: %d sections, cap %d", len(hdr.Sections), maxSections)
	}
	secs := make(map[string]sectionHeader, len(hdr.Sections))
	var end int64
	for _, s := range hdr.Sections {
		if _, dup := secs[s.Name]; dup {
			return nil, fmt.Errorf("artifact: duplicate section %q", s.Name)
		}
		if s.Off < 0 || s.Len < 0 || s.Off%8 != 0 || s.Len > dataLen-s.Off {
			return nil, fmt.Errorf("artifact: section %q spans [%d,%d) of %d data bytes", s.Name, s.Off, s.Off+s.Len, dataLen)
		}
		switch s.Name {
		case secIndex:
			// Variable length; DecodeIndex validates the blob itself.
		default:
			w, ok := want[s.Name]
			if !ok {
				return nil, fmt.Errorf("artifact: unexpected section %q for dtype %s", s.Name, dtype)
			}
			if s.Len != w {
				return nil, fmt.Errorf("artifact: section %q is %d bytes, shape demands %d", s.Name, s.Len, w)
			}
		}
		if s.Off+s.Len > end {
			end = s.Off + s.Len
		}
		secs[s.Name] = s
	}
	for name := range want {
		if _, ok := secs[name]; !ok {
			return nil, fmt.Errorf("artifact: missing section %q", name)
		}
	}
	if end != dataLen {
		return nil, fmt.Errorf("artifact: sections end at %d, data area is %d bytes", end, dataLen)
	}
	return &parsedV2{meta: meta, dtype: dtype, pq: hdr.PQ, secs: secs, base: base}, nil
}

// ShardPath derives the conventional per-shard artifact filename from
// an unsharded base path: shard 2 of 4 over base "m.ckpt.art" lives at
// "m.ckpt.art.s2of4". The producer (cmd/gsgcn-index -shards) and every
// consumer (shard engines resolving their warm-start source) share
// this one naming rule, so a fleet needs to agree only on the base.
func ShardPath(base string, shard, shards int) string {
	return fmt.Sprintf("%s.s%dof%d", base, shard, shards)
}

// WriteFile atomically writes the snapshot as an artifact file: encode
// to a temp file in the destination directory, fsync, rename. A
// half-written artifact can therefore never be observed at path.
func WriteFile(path string, s *Snapshot) (uint64, error) {
	data, err := Encode(s)
	if err != nil {
		return 0, err
	}
	sum := binary.LittleEndian.Uint64(data[len(data)-8:])
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	// CreateTemp defaults to 0600; match the checkpoint and manifest
	// permissions so a server running as a different user than the
	// indexer can actually read the artifact.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return sum, nil
}

// Manifest is the human-readable sidecar written next to an artifact
// (<artifact>.json): what the artifact contains and the checksums to
// verify it out-of-band, without parsing the binary format.
type Manifest struct {
	Artifact      string `json:"artifact"`
	Checkpoint    string `json:"checkpoint,omitempty"`
	Checksum      string `json:"checksum"` // CRC-64/ECMA trailer, hex
	Meta          Meta   `json:"meta"`
	Dtype         string `json:"dtype,omitempty"`
	IndexChecksum string `json:"index_checksum,omitempty"`
	IndexLinks    int    `json:"index_links,omitempty"`
}

// WriteManifest writes the manifest for a just-written artifact next
// to it and returns the manifest path.
func WriteManifest(artifactPath, checkpointPath string, s *Snapshot, sum uint64) (string, error) {
	mf := Manifest{
		Artifact:   filepath.Base(artifactPath),
		Checkpoint: checkpointPath,
		Checksum:   fmt.Sprintf("%016x", sum),
		Meta:       s.Meta,
		Dtype:      s.Dtype.String(),
	}
	if s.Index != nil {
		mf.IndexChecksum = fmt.Sprintf("%016x", s.Index.Checksum())
		mf.IndexLinks = s.Index.Stats().Links
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return "", err
	}
	path := artifactPath + ".json"
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
