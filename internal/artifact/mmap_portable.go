//go:build !unix

package artifact

import (
	"io"
	"os"
)

// mapRO on platforms without a wired mmap syscall reads the file into
// an 8-aligned private buffer: OpenMapped keeps working (lazy embedding
// CRC included), only the page-sharing win is absent.
func mapRO(f *os.File, size int) ([]byte, func([]byte) error, error) {
	data := alignedBytes(size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func([]byte) error { return nil }, nil
}
