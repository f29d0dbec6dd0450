package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"gsgcn/internal/ann"
	"gsgcn/internal/mat"
)

// This file is the one read path of the version-2 format: one parser
// over the artifact's bytes, every float section cast in place, never
// copied element by element, and every section CRC-checked before the
// File is returned. Open maps the file read-only from the page cache,
// so its tables are shared by every process serving the same artifact
// (on a platform without a wired mmap syscall it reads the file into
// a private buffer instead); Decode parses bytes already in memory.
//
// Lifetime: a mapping stays valid while the File is reachable; a
// finalizer unmaps after the last reference is collected, so a reload
// can drop an old snapshot without coordinating with in-flight
// readers. The views (the table, its rows, the index's vectors) do
// not pin the File themselves: whoever holds them holds the File too,
// as a serving snapshot does. Truncating or rewriting the file in
// place under a live mapping is undefined (SIGBUS) — producers must
// follow WriteFile's write-temp-then-rename protocol, which leaves old
// mappings pointing at the old inode.

// hostLittleEndian reports whether float sections can be cast in
// place. Open and Decode refuse a big-endian host with errBigEndian;
// a serving engine then computes cold.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var errBigEndian = errors.New("artifact: reading in place needs a little-endian host")

// File is a parsed, CRC-checked artifact whose sections alias its
// bytes — a read-only mapping (Open) or the caller's buffer (Decode).
// Accessors return views into those bytes; they stay valid while the
// File is reachable and must not be mutated.
type File struct {
	data   []byte
	unmap  func([]byte) error // nil when data is heap
	closed atomic.Bool

	sum   uint64
	parse *parsedV2

	table *mat.Dense
	norms []float64
	f32   *mat.F32Table
	pq    *mat.PQTable
	index *ann.Index
}

// Open maps the version-2 artifact at path read-only and validates
// it: every declared length and every section CRC, the embedding
// section included. The trailer is read as the file's identity, not
// verified: the section CRCs cover every byte a table is read from,
// and the trailer would cost a second full pass over the file.
func Open(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	fi, err := fh.Stat()
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
	data, unmap, err := mapRO(fh, int(size))
	if err != nil {
		return nil, fmt.Errorf("artifact: mapping %s: %w", path, err)
	}
	f := &File{data: data, unmap: unmap}
	if err := f.init(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if unmap != nil {
		runtime.SetFinalizer(f, func(f *File) { _ = f.Close() })
	}
	return f, nil
}

// Decode parses an artifact held in memory, verifying the trailer,
// every declared length and every section CRC, so a corrupted,
// truncated or hostile blob fails with a clean error — never a panic,
// short read or unbounded allocation (FuzzDecode). The File's tables
// alias data (copied once if data does not start on an 8-byte
// boundary): the caller must not modify data afterwards.
func Decode(data []byte) (*File, error) {
	if _, err := checksum(data); err != nil {
		return nil, err
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		buf := alignedBytes(len(data))
		copy(buf, data)
		data = buf
	}
	f := &File{data: data}
	if err := f.init(); err != nil {
		return nil, err
	}
	return f, nil
}

// alignedBytes returns n zero bytes starting on an 8-byte boundary.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// Trailer returns the checksum stored in the last 8 bytes of the
// artifact at path, read without validating anything: the identity a
// reload compares to decide whether the file it last adopted is
// unchanged.
func Trailer(path string) (uint64, error) {
	fh, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	fi, err := fh.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() < 24 {
		return 0, fmt.Errorf("artifact: %s: %d bytes is too short to be an artifact", path, fi.Size())
	}
	var b [8]byte
	if _, err := fh.ReadAt(b[:], fi.Size()-8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// init parses and validates f.data (8-aligned, trailer included):
// the header, then every section's CRC, then the views.
func (f *File) init() error {
	if !hostLittleEndian {
		return errBigEndian
	}
	body := f.data[:len(f.data)-8]
	f.sum = binary.LittleEndian.Uint64(f.data[len(f.data)-8:])
	if len(body) < 16 {
		return fmt.Errorf("artifact: truncated header (%d bytes)", len(body))
	}
	if string(body[:8]) != magic {
		return fmt.Errorf("artifact: bad magic %q", body[:8])
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != formatVersion {
		return fmt.Errorf("artifact: format version %d, want %d", v, formatVersion)
	}
	p, err := parseV2(body)
	if err != nil {
		return err
	}
	f.parse = p
	for name, s := range p.secs {
		if got := crc64.Checksum(p.sec(body, name), crcTable); got != s.CRC {
			return fmt.Errorf("artifact: section %q CRC mismatch (stored %016x, computed %016x)", name, s.CRC, got)
		}
	}
	rows, cols := p.meta.rows(), p.meta.Dim
	f.table = &mat.Dense{Rows: rows, Cols: cols, Data: castF64(p.sec(body, secEmb))}
	f.norms = castF64(p.sec(body, secNorms))
	switch p.dtype {
	case mat.DtypeF32:
		f.f32 = &mat.F32Table{RowsN: rows, ColsN: cols, Data: castF32(p.sec(body, secF32))}
	case mat.DtypeI8PQ:
		f.pq = &mat.PQTable{
			RowsN:     rows,
			ColsN:     cols,
			Params:    mat.PQParams{M: p.pq.M, K: p.pq.K, Iters: p.pq.Iters, Seed: p.pq.Seed},
			Centroids: castF64(p.sec(body, secPQCent)),
			Codes:     p.sec(body, secPQCodes),
		}
		if err := f.pq.Validate(); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
	}
	if s, ok := p.secs[secIndex]; ok && s.Len > 0 {
		idx, err := ann.DecodeIndex(p.sec(body, secIndex), f.table, f.norms)
		if err != nil {
			return err
		}
		f.index = idx
	}
	return nil
}

// castF64 reinterprets 8-aligned little-endian bytes as float64s.
// Section offsets are 8-aligned relative to the 8-aligned start of
// the bytes, so the cast is always legal here.
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

// Meta returns the artifact metadata.
func (f *File) Meta() Meta { return f.parse.meta }

// Dtype returns the resident representation the artifact was built
// for.
func (f *File) Dtype() mat.Dtype { return f.parse.dtype }

// Sum returns the stored trailer checksum. Decode has verified it
// against the body; Open only reads it, as an identity fingerprint
// (good for "has the file changed" reload comparisons), while
// integrity rests on the per-section CRCs.
func (f *File) Sum() uint64 { return f.sum }

// Table returns the embedding table, a view of the File's bytes.
func (f *File) Table() *mat.Dense { return f.table }

// Norms returns the norm vector (aliasing the File's bytes).
func (f *File) Norms() []float64 { return f.norms }

// F32 returns the float32 payload (nil unless dtype f32).
func (f *File) F32() *mat.F32Table { return f.f32 }

// PQ returns the product-quantization payload (nil unless dtype
// i8pq). Its codes and centroids alias the File's bytes.
func (f *File) PQ() *mat.PQTable { return f.pq }

// Index returns the decoded ANN index (nil when the artifact carries
// none). Node structure lives on the heap; vectors read the table.
func (f *File) Index() *ann.Index { return f.index }

// MappedBytes returns the size of the mapping (0 for a heap File).
func (f *File) MappedBytes() int64 {
	if f.unmap == nil {
		return 0
	}
	return int64(len(f.data))
}

// Close unmaps a mapped File; a heap File has nothing to release.
// Idempotent. Callers normally never call it — the finalizer unmaps
// after the last snapshot reference is collected — but an install
// path that rejects a freshly opened artifact may close it eagerly.
func (f *File) Close() error {
	if f.unmap == nil || f.closed.Swap(true) {
		return nil
	}
	runtime.SetFinalizer(f, nil)
	return f.unmap(f.data)
}
