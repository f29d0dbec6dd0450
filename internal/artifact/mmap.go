package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"gsgcn/internal/ann"
	"gsgcn/internal/mat"
)

// This file is the mmap load path: a version-2 artifact opened
// read-only straight from the page cache, with the float sections
// cast in place instead of copied. Warm start becomes O(header) —
// table pages fault in on first touch and are shared by every process
// serving the same artifact. Integrity is per section: small sections
// (norms, codebooks, index) are CRC-checked eagerly at open, the big
// embedding section lazily on its first row access, so opening a
// multi-gigabyte artifact never reads the whole file.
//
// Lifetime: the mapping stays valid while the Mapped (or any snapshot
// built from it) is reachable; a finalizer unmaps after the last
// reference is collected, so a reload can drop an old snapshot
// without coordinating with in-flight readers. Truncating or
// rewriting the file in place under a live mapping is undefined
// (SIGBUS) — producers must follow WriteFile's write-temp-then-rename
// protocol, which leaves old mappings pointing at the old inode.

// hostLittleEndian reports whether float sections can be cast in
// place; on a big-endian host OpenMapped refuses and callers fall
// back to the copying decoder.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Mapped is an artifact whose sections alias a read-only memory
// mapping. Accessors return views into the mapping; they stay valid
// while the Mapped is reachable and must not be mutated.
type Mapped struct {
	data   []byte
	unmap  func([]byte) error
	closed atomic.Bool

	path  string
	sum   uint64
	parse *parsedV2

	table *mappedTable
	norms []float64
	f32   *mat.F32Table
	pq    *mat.PQTable
	index *ann.Index
}

// OpenMapped maps the version-2 artifact at path read-only and
// validates everything except the embedding section, whose CRC is
// deferred to first row access. Big-endian hosts return an error —
// callers fall back to ReadFile.
func OpenMapped(path string) (*Mapped, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("artifact: mmap load needs a little-endian host")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < 24 {
		return nil, fmt.Errorf("artifact: %s: %d bytes is too short to map", path, size)
	}
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("artifact: %s: %d bytes exceeds the address space", path, size)
	}
	data, unmap, err := mapRO(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("artifact: mapping %s: %w", path, err)
	}
	m := &Mapped{data: data, unmap: unmap, path: path}
	if err := m.init(); err != nil {
		_ = m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Unmap after the last reference (the Mapped or any view handed
	// out by it keeps m alive through the table's back-pointer).
	runtime.SetFinalizer(m, func(m *Mapped) { _ = m.Close() })
	return m, nil
}

// init parses and validates the mapped bytes.
func (m *Mapped) init() error {
	body := m.data[:len(m.data)-8]
	m.sum = binary.LittleEndian.Uint64(m.data[len(m.data)-8:])
	if len(body) < 16 {
		return fmt.Errorf("artifact: truncated header (%d bytes)", len(body))
	}
	if string(body[:8]) != magic {
		return fmt.Errorf("artifact: bad magic %q", body[:8])
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != formatVersion {
		return fmt.Errorf("artifact: mmap load needs format version %d, file is version %d", formatVersion, v)
	}
	p, err := parseV2(body)
	if err != nil {
		return err
	}
	m.parse = p
	// Eager CRCs for everything but the embedding table.
	for name := range p.secs {
		if name == secEmb {
			continue
		}
		if err := m.ValidateSection(name); err != nil {
			return err
		}
	}
	rows := p.meta.rows()
	m.table = &mappedTable{
		m:    m,
		rows: rows,
		cols: p.meta.Dim,
		data: castF64(p.sec(body, secEmb)),
	}
	m.norms = castF64(p.sec(body, secNorms))
	switch p.dtype {
	case mat.DtypeF32:
		m.f32 = &mat.F32Table{RowsN: rows, ColsN: p.meta.Dim, Data: castF32(p.sec(body, secF32))}
	case mat.DtypeI8PQ:
		m.pq = &mat.PQTable{
			RowsN:     rows,
			ColsN:     p.meta.Dim,
			Params:    mat.PQParams{M: p.pq.M, K: p.pq.K, Iters: p.pq.Iters, Seed: p.pq.Seed},
			Centroids: castF64(p.sec(body, secPQCent)),
			Codes:     p.sec(body, secPQCodes),
		}
		if err := m.pq.Validate(); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
	}
	if s, ok := p.secs[secIndex]; ok && s.Len > 0 {
		idx, err := ann.DecodeIndex(p.sec(body, secIndex), m.table, m.norms)
		if err != nil {
			return err
		}
		m.index = idx
	}
	return nil
}

// castF64 reinterprets 8-aligned little-endian bytes as float64s.
// Section offsets are 8-aligned relative to the page-aligned mapping,
// so the cast is always legal here.
func castF64(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// castF32 reinterprets aligned little-endian bytes as float32s.
func castF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// ValidateSection CRC-checks one section by name against its header
// entry. The embedding section check also runs implicitly (once) on
// the first Row access.
func (m *Mapped) ValidateSection(name string) error {
	s, ok := m.parse.secs[name]
	if !ok {
		return fmt.Errorf("artifact: no section %q", name)
	}
	body := m.data[:len(m.data)-8]
	if got := crc64.Checksum(m.parse.sec(body, name), crcTable); got != s.CRC {
		return fmt.Errorf("artifact: %s: section %q CRC mismatch (stored %016x, computed %016x)", m.path, name, s.CRC, got)
	}
	return nil
}

// Meta returns the artifact metadata.
func (m *Mapped) Meta() Meta { return m.parse.meta }

// Dtype returns the resident representation the artifact was built
// for.
func (m *Mapped) Dtype() mat.Dtype { return m.parse.dtype }

// Sum returns the stored trailer checksum. Unlike ReadFile's, it is
// read, not recomputed — the whole point of mapping is not touching
// every page — so it is an identity fingerprint (good for "has the
// file changed" reload comparisons), while integrity rests on the
// per-section CRCs.
func (m *Mapped) Sum() uint64 { return m.sum }

// Table returns the embedding table as a RowSource over the mapping.
func (m *Mapped) Table() mat.RowSource { return m.table }

// Norms returns the norm vector (aliasing the mapping).
func (m *Mapped) Norms() []float64 { return m.norms }

// F32 returns the float32 payload (nil unless dtype f32).
func (m *Mapped) F32() *mat.F32Table { return m.f32 }

// PQ returns the product-quantization payload (nil unless dtype
// i8pq). Its codes and centroids alias the mapping.
func (m *Mapped) PQ() *mat.PQTable { return m.pq }

// Index returns the decoded ANN index (nil when the artifact carries
// none). Node structure lives on the heap; vectors read the mapping.
func (m *Mapped) Index() *ann.Index { return m.index }

// MappedBytes returns the size of the mapping.
func (m *Mapped) MappedBytes() int64 { return int64(len(m.data)) }

// Close unmaps. Idempotent. Callers normally never call it — the
// finalizer unmaps after the last snapshot reference is collected —
// but an install path that rejects a freshly opened artifact may
// close it eagerly.
func (m *Mapped) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(m, nil)
	return m.unmap(m.data)
}

// mappedTable is the RowSource over the mapped embedding section. The
// sync.Once runs the deferred CRC on the first row read; a mismatch
// panics — by the time rows are being served, silently wrong floats
// are strictly worse than a crash, and the eager sections have
// already vouched for the header that declared the CRC.
type mappedTable struct {
	m     *Mapped
	rows  int
	cols  int
	data  []float64
	check sync.Once
}

// NumRows returns the row count.
func (t *mappedTable) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *mappedTable) NumCols() int { return t.cols }

// Row returns row i, validating the section CRC on first access.
func (t *mappedTable) Row(i int) []float64 {
	t.check.Do(func() {
		if err := t.m.ValidateSection(secEmb); err != nil {
			panic(err)
		}
	})
	return t.data[i*t.cols : (i+1)*t.cols]
}
