package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// errClass is what Decode and ReadMessage must agree on for rejected
// input: the error text, except that every way of running out of bytes
// (Decode sees a short slice, ReadMessage an EOF) is one class.
func errClass(err error) string {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
		strings.Contains(err.Error(), "too short") || strings.Contains(err.Error(), "available") {
		return "truncated"
	}
	return err.Error()
}

// FuzzDecode drives the frame decoder with truncated, bit-flipped,
// resealed-after-mutation and synthetic inputs — the same contract as
// the artifact/checkpoint loaders: Decode either returns a coherent
// message or an error, never panics, and never lets a small input
// demand a huge allocation (header cap plus the bytes-actually-present
// cross-checks on every declared count). Every input also goes through
// ReadMessage — parsed in place in a reader larger than the frame,
// through the one-buffer fallback in a 16-byte reader, and each of
// those fed a byte at a time — which must return the same message, or
// the same class of error, and stop exactly at the frame's end.
func FuzzDecode(f *testing.F) {
	for _, m := range testMessages() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated mid-payload
	}
	f.Add([]byte{})
	f.Add([]byte("not a wire frame"))

	// Resealed corruption: valid trailer, mutated payload byte.
	good, _ := Encode(&EmbedResponse{
		Version: 1, ModelVersion: 1, Dim: 1,
		IDs: []int{3}, Vectors: [][]float64{{0.5}},
	})
	flipped := append([]byte(nil), good[:len(good)-trailerLen]...)
	flipped[headerLen] ^= 0xFF
	f.Add(binary.LittleEndian.AppendUint32(flipped, crc32.ChecksumIEEE(flipped)))

	// A resealed header declaring an absurd neighbor count.
	absurd := []byte(Magic)
	absurd = append(absurd, Version, byte(TTopKResp))
	absurd = binary.LittleEndian.AppendUint32(absurd, 38)
	absurd = append(absurd, make([]byte, 34)...)
	absurd = binary.LittleEndian.AppendUint32(absurd, 1<<30)
	f.Add(binary.LittleEndian.AppendUint32(absurd, crc32.ChecksumIEEE(absurd)))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		var again []byte
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside a message", err)
			}
		} else {
			if m == nil {
				t.Fatal("nil message with nil error")
			}
			if n < headerLen+trailerLen || n > len(data) {
				t.Fatalf("consumed %d bytes of %d", n, len(data))
			}
			// An accepted message must re-encode to the exact accepted
			// frame: the format has one canonical encoding per message.
			if again, err = Encode(m); err != nil {
				t.Fatalf("re-encoding accepted message: %v", err)
			}
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("re-encode differs:\n got %x\nwant %x", again, data[:n])
			}
		}

		// The class ReadMessage must report. It checks the header as
		// soon as ten bytes are in, where Decode wants fourteen first.
		want := ""
		if err != nil {
			want = errClass(err)
		}
		if len(data) >= headerLen {
			declared, herr := checkHeader(data[:headerLen])
			if herr != nil {
				want = herr.Error()
			} else if declared > 1<<20 && declared > len(data) {
				// A truncated frame is read through the fallback whatever
				// length it declares; one declaring megabytes only makes
				// each of the four readers allocate them first.
				return
			}
		}
		for name, br := range map[string]*bufio.Reader{
			"in place":           bufio.NewReaderSize(bytes.NewReader(data), len(data)+16),
			"fallback":           bufio.NewReaderSize(bytes.NewReader(data), 16),
			"in place, bytewise": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), len(data)+16),
			"fallback, bytewise": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), 16),
		} {
			sm, serr := ReadMessage(br)
			if serr != nil {
				if sm != nil {
					t.Fatalf("%s: error %v returned alongside a message", name, serr)
				}
				if got := errClass(serr); got != want {
					t.Fatalf("%s: ReadMessage fails with %q, Decode with %q", name, got, want)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: ReadMessage accepts what Decode rejects (%v)", name, err)
			}
			if se, _ := Encode(sm); !bytes.Equal(se, again) {
				t.Fatalf("%s: ReadMessage and Decode disagree", name)
			}
			if rest, _ := io.ReadAll(br); !bytes.Equal(rest, data[n:]) {
				t.Fatalf("%s: ReadMessage left %d bytes unread, the frame ends %d before the end", name, len(rest), len(data)-n)
			}
		}
	})
}
