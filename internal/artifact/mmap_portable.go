//go:build !unix

package artifact

import (
	"io"
	"os"
)

// mapRO on platforms without a wired mmap syscall reads the file into
// an 8-aligned private buffer: Open keeps working, only the
// page-sharing win is absent. The nil unmap marks the bytes as heap,
// so MappedBytes reports 0 and the serving layer counts the table as
// resident.
func mapRO(f *os.File, size int) ([]byte, func([]byte) error, error) {
	data := alignedBytes(size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, nil, nil
}
