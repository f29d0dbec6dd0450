package ann

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"

	"gsgcn/internal/mat"
)

// Binary index format (version 1), all integers little-endian:
//
//	[0:8]   magic "GSGANNIX"
//	[8:12]  u32 format version
//	[12:16] u32 M
//	[16:20] u32 EfConstruction
//	[20:24] u32 EfSearch
//	[24:32] u64 Seed
//	[32:36] u32 n (vertex count)
//	[36:40] i32 entry (-1 when empty)
//	then per vertex, in id order:
//	        u8 level, then per layer 0..level:
//	        u32 link count, count * i32 neighbor ids
//
// The encoding is a pure function of the index structure, and HNSW
// construction is deterministic (package doc), so two indexes built
// over the same table with the same Params encode to identical bytes —
// the property that makes persistence a zero-risk fast path: a loaded
// index can be asserted byte-equal to a freshly built one.

const (
	indexMagic   = "GSGANNIX"
	indexVersion = 1

	// maxIndexM bounds the connectivity a decoded header may declare,
	// keeping per-layer link-count validation meaningful on corrupted
	// or hostile inputs.
	maxIndexM = 1 << 16
)

// crcTable is the ECMA polynomial table shared by checksum helpers.
var crcTable = crc64.MakeTable(crc64.ECMA)

// EncodeBinary serializes the index structure (links only — the
// embedding table lives with its owner and is re-attached by
// DecodeIndex). The output is deterministic: identical structures
// encode to identical bytes.
func (ix *Index) EncodeBinary() []byte {
	buf := make([]byte, 0, 40+len(ix.nodes)+4*len(ix.links))
	buf = append(buf, indexMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, indexVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.params.M))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.params.EfConstruction))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.params.EfSearch))
	buf = binary.LittleEndian.AppendUint64(buf, ix.params.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ix.nodes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.entry))
	// The links array is laid out as the encoding is, vertex after
	// vertex: each vertex's counts and ids run up to the next vertex's
	// start.
	for v, nd := range ix.nodes {
		end := len(ix.links)
		if v+1 < len(ix.nodes) {
			end = ix.nodes[v+1].off
		}
		buf = append(buf, byte(nd.level))
		for _, x := range ix.links[nd.off:end] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	}
	return buf
}

// Checksum is a structural fingerprint of the index: the CRC-64/ECMA
// of its binary encoding. Because the encoding is deterministic, equal
// checksums over the same table mean interchangeable indexes.
func (ix *Index) Checksum() uint64 {
	return crc64.Checksum(ix.EncodeBinary(), crcTable)
}

// DecodeIndex reconstructs an index from EncodeBinary output,
// re-attaching the embedding table and norms the structure was built
// over (norms nil recomputes them — see Build). Every length and id is
// validated before use: corrupted or truncated input yields an error,
// never a panic or an unboundedly large allocation. Trailing bytes
// after the encoded structure are an error. The links are decoded in
// one pass into the index's one links array, sized once from the
// blob: every count and id of it is four bytes of data.
func DecodeIndex(data []byte, emb *mat.Dense, norms []float64) (*Index, error) {
	if len(data) < 40 {
		return nil, fmt.Errorf("ann: index blob truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != indexMagic {
		return nil, fmt.Errorf("ann: bad index magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != indexVersion {
		return nil, fmt.Errorf("ann: index format version %d, want %d", v, indexVersion)
	}
	p := Params{
		M:              int(binary.LittleEndian.Uint32(data[12:16])),
		EfConstruction: int(binary.LittleEndian.Uint32(data[16:20])),
		EfSearch:       int(binary.LittleEndian.Uint32(data[20:24])),
		Seed:           binary.LittleEndian.Uint64(data[24:32]),
	}
	if p.M < 1 || p.M > maxIndexM {
		return nil, fmt.Errorf("ann: index declares M=%d, want 1..%d", p.M, maxIndexM)
	}
	n := int(binary.LittleEndian.Uint32(data[32:36]))
	entry := int32(binary.LittleEndian.Uint32(data[36:40]))
	if n != emb.NumRows() {
		return nil, fmt.Errorf("ann: index covers %d vertices, table has %d", n, emb.NumRows())
	}
	if norms != nil && len(norms) != n {
		return nil, fmt.Errorf("ann: %d norms for %d vertices", len(norms), n)
	}
	if entry < -1 || int(entry) >= n || (entry == -1) != (n == 0) {
		return nil, fmt.Errorf("ann: index entry %d invalid for %d vertices", entry, n)
	}
	ix := &Index{params: p, emb: emb, norms: norms, entry: entry, nodes: make([]node, n)}
	links := make([]int32, 0, max(0, (len(data)-40-n)/4))
	off := 40
	for v := 0; v < n; v++ {
		if off >= len(data) {
			return nil, fmt.Errorf("ann: index blob truncated at vertex %d", v)
		}
		lvl := int32(data[off])
		off++
		if lvl >= maxLevel {
			return nil, fmt.Errorf("ann: vertex %d declares level %d, cap %d", v, lvl, maxLevel-1)
		}
		ix.nodes[v] = node{level: lvl, off: len(links)}
		for l := int32(0); l <= lvl; l++ {
			if off+4 > len(data) {
				return nil, fmt.Errorf("ann: index blob truncated at vertex %d layer %d", v, l)
			}
			cnt := int(binary.LittleEndian.Uint32(data[off : off+4]))
			off += 4
			// The builder never leaves more than capAt(l) links — 2M on
			// the base layer, M above; a larger count is corruption, and
			// the bound keeps the allocation below attacker control.
			capL := p.M
			if l == 0 {
				capL = 2 * p.M
			}
			if cnt > capL {
				return nil, fmt.Errorf("ann: vertex %d layer %d declares %d links, cap %d", v, l, cnt, capL)
			}
			if off+4*cnt > len(data) {
				return nil, fmt.Errorf("ann: index blob truncated in vertex %d links", v)
			}
			links = append(links, int32(cnt))
			for i := 0; i < cnt; i++ {
				u := int32(binary.LittleEndian.Uint32(data[off : off+4]))
				off += 4
				if u < 0 || int(u) >= n || u == int32(v) {
					return nil, fmt.Errorf("ann: vertex %d links to invalid vertex %d", v, u)
				}
				links = append(links, u)
			}
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("ann: %d trailing bytes after index", len(data)-off)
	}
	ix.links = links
	// The entry vertex must sit on the highest occupied layer, or the
	// descent in Search would start below existing layers.
	if n > 0 {
		top := int32(0)
		for v := range ix.nodes {
			if ix.nodes[v].level > top {
				top = ix.nodes[v].level
			}
		}
		if ix.nodes[entry].level != top {
			return nil, fmt.Errorf("ann: entry %d at level %d, index max level is %d", entry, ix.nodes[entry].level, top)
		}
	}
	if norms == nil {
		ns := make([]float64, n)
		for v := 0; v < n; v++ {
			row := emb.Row(v)
			ns[v] = math.Sqrt(mat.Dot(row, row))
		}
		ix.norms = ns
	}
	return ix, nil
}
