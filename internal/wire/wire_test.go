package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testMessages is one of every frame type with representative values,
// including negative-zero/NaN-free float edge bits, empty and
// non-empty variable sections.
func testMessages() []Message {
	return []Message{
		&EmbedRequest{IDs: []int{0, 1, 7}},
		&EmbedRequest{Model: "canary", IDs: []int{42}},
		&PredictRequest{Model: "prod", IDs: []int{3, 1, 4, 1, 5}},
		&TopKRequest{ID: 9, K: 10, Mode: ModeANN, Ef: 64},
		&TopKRequest{Model: "m", ID: 0}, // K/Ef unset, auto mode
		&EmbedResponse{
			Version: 3, ModelVersion: 120, Dim: 2,
			IDs:     []int{5, 6},
			Vectors: [][]float64{{1.5, -0.25}, {math.Copysign(0, -1), 1e-300}},
		},
		&EmbedResponse{Version: 1, ModelVersion: 1, Dim: 0, IDs: []int{}, Vectors: [][]float64{}},
		&PredictResponse{
			Version: 2, ModelVersion: 40, Classes: 3, MultiLabel: true,
			IDs:    []int{8, 9},
			Labels: [][]int{{0, 2}, {}},
			Probs:  [][]float64{{0.25, 0.5, 0.25}, {0.125, 0.125, 0.75}},
		},
		&TopKResponse{
			Version: 7, ModelVersion: 200, ID: 4, K: 2, Mode: ModeExact,
			Degraded:  true,
			Neighbors: []Neighbor{{ID: 1, Score: 0.875}, {ID: 2, Score: -0.5}},
		},
		&TopKResponse{Version: 1, ModelVersion: 1, ID: 0, K: 1, Mode: ModeANN, Ef: 32, Neighbors: []Neighbor{}},
		&ErrorResponse{Status: 429, Reason: "shed", Message: "serve: overloaded, request shed"},
		&ErrorResponse{Status: 400, Message: "serve: no ids given"},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, m := range testMessages() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		got, n, err := Decode(frame)
		if err != nil {
			t.Fatalf("Decode(%#v frame): %v", m, err)
		}
		if n != len(frame) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(frame))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
		}
		// Determinism: equal messages encode to equal bytes.
		again, _ := Encode(got)
		if !bytes.Equal(frame, again) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", again, frame)
		}
	}
}

// TestEncodeGolden pins the frame bytes across commits: the frames of
// testMessages() as the encoder before AppendFrame produced them. A
// faster encoder either reproduces them or has changed the protocol.
func TestEncodeGolden(t *testing.T) {
	golden := []string{
		"4753475701011e000000000003000000000000000000000001000000000000000700000000000000b195930d",
		"47534757010114000000060063616e617279010000002a00000000000000ac5e41b1",
		"47534757010232000000040070726f6405000000030000000000000001000000000000000400000000000000010000000000000005000000000000007e1aa7b4",
		"47534757010313000000000009000000000000000a00000002400000005c4a0ea2",
		"4753475701031400000001006d0000000000000000000000000000000000f486780a",
		"4753475701814800000003000000000000007800000000000000020000000200000005000000000000000600000000000000000000000000f83f000000000000d0bf000000000000008059f3f8c21f6ea50153e6f434",
		"475347570181180000000100000000000000010000000000000000000000000000001101adf4",
		"4753475701827100000002000000000000002800000000000000030000000102000000080000000000000009000000000000000200000000000000020000000000000003000000000000000000d03f000000000000e03f000000000000d03f03000000000000000000c03f000000000000c03f000000000000e83fca161a6f",
		"475347570183460000000700000000000000c800000000000000040000000000000002000000010000000001020000000100000000000000000000000000ec3f0200000000000000000000000000e0bf07bd8322",
		"475347570183260000000100000000000000010000000000000000000000000000000100000002200000000000000000bd1b49f1",
		"4753475701ee2b000000ad0100000400736865641f0073657276653a206f7665726c6f616465642c207265717565737420736865645f35ca3d",
		"4753475701ee1b000000900100000000130073657276653a206e6f2069647320676976656e90a90319",
	}
	msgs := testMessages()
	if len(msgs) != len(golden) {
		t.Fatalf("%d test messages, %d golden frames", len(msgs), len(golden))
	}
	for i, m := range msgs {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != golden[i] {
			t.Errorf("%T #%d:\n got %s\nwant %s", m, i, got, golden[i])
		}
	}
}

// TestPayloadLenIsExact: the length AppendFrame sizes its one
// allocation from is the length the message goes on to write.
func TestPayloadLenIsExact(t *testing.T) {
	for _, m := range testMessages() {
		if got, want := m.payloadLen(), len(m.appendPayload(nil)); got != want {
			t.Errorf("%T: payloadLen() = %d, appendPayload wrote %d", m, got, want)
		}
	}
}

// TestAppendFrame: the frame lands after what dst already held, and a
// message that cannot be encoded leaves dst as it came.
func TestAppendFrame(t *testing.T) {
	for _, m := range testMessages() {
		want, _ := Encode(m)
		got, err := AppendFrame([]byte("prefix"), m)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendFrame(prefix, %T) = %x, %v", m, got, err)
		}
	}
	for _, m := range []Message{
		&EmbedRequest{Model: strings.Repeat("x", math.MaxUint16+1)},
		&EmbedRequest{IDs: make([]int, MaxPayload/8)}, // 6 bytes over with its prefixes
	} {
		got, err := AppendFrame([]byte("prefix"), m)
		if err == nil || string(got) != "prefix" {
			t.Fatalf("AppendFrame of an unencodable message = %d bytes, %v", len(got), err)
		}
	}
}

func embedAnswer(ids, dim int) *EmbedResponse {
	m := &EmbedResponse{Version: 1, ModelVersion: 1, Dim: dim, IDs: make([]int, ids), Vectors: make([][]float64, ids)}
	for i := range m.Vectors {
		m.IDs[i] = i
		m.Vectors[i] = make([]float64, dim)
		for j := range m.Vectors[i] {
			m.Vectors[i][j] = float64(i*dim+j) / 7
		}
	}
	return m
}

// TestReadMessageOwnsItsMemory reads two frames through one reader,
// in place and through the fallback: the first message must not change
// when the second overwrites the reader's buffer, and each row ends at
// its own capacity, so appending to one cannot write into the next.
func TestReadMessageOwnsItsMemory(t *testing.T) {
	first := embedAnswer(3, 8)
	first.IDs = []int{7, 8, 9}
	second := &ErrorResponse{Status: 503, Reason: strings.Repeat("r", 300), Message: strings.Repeat("m", 300)}
	var stream []byte
	for _, m := range []Message{first, &EmbedRequest{Model: "canary", IDs: []int{4, 5}}, second} {
		stream, _ = AppendFrame(stream, m)
	}
	for _, size := range []int{16, ConnBufSize} {
		br := bufio.NewReaderSize(bytes.NewReader(stream), size)
		got, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMessage(br); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("buffer %d: first message changed once later frames were read:\n got %#v\nwant %#v", size, got, first)
		}
		if want := (&EmbedRequest{Model: "canary", IDs: []int{4, 5}}); !reflect.DeepEqual(req, want) {
			t.Fatalf("buffer %d: request changed once the next frame was read: %#v", size, req)
		}
		rows := got.(*EmbedResponse).Vectors
		for i, row := range rows {
			if cap(row) != len(row) {
				t.Fatalf("buffer %d: row %d has len %d, cap %d", size, i, len(row), cap(row))
			}
		}
		_ = append(rows[0], -1)
		if rows[1][0] != first.Vectors[1][0] {
			t.Fatal("append to row 0 wrote into row 1")
		}
	}
}

// TestCodecAllocations holds the codec to its budget: one allocation
// to encode (none into a buffer that has the room), and a decoded
// embed answer costs its struct, its ids, its row headers and one
// array for every row together.
func TestCodecAllocations(t *testing.T) {
	m := embedAnswer(3, 256)
	frame, _ := Encode(m)
	if n := testing.AllocsPerRun(50, func() { _, _ = Encode(m) }); n > 1 {
		t.Errorf("Encode: %v allocations, want 1", n)
	}
	dst := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(50, func() { _, _ = AppendFrame(dst, m) }); n > 0 {
		t.Errorf("AppendFrame into a large-enough dst: %v allocations, want 0", n)
	}
	src := bytes.NewReader(frame)
	br := bufio.NewReaderSize(src, ConnBufSize)
	if n := testing.AllocsPerRun(50, func() {
		src.Reset(frame)
		br.Reset(src)
		if _, err := ReadMessage(br); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Errorf("ReadMessage of a 3 x 256 embed answer: %v allocations, want at most 5", n)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	msgs := testMessages()
	var stream bytes.Buffer
	bw := bufio.NewWriter(&stream)
	for _, m := range msgs {
		if err := WriteMessage(bw, m); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := bufio.NewReader(&stream)
	for i, want := range msgs {
		got, err := ReadMessage(buf)
		if err != nil {
			t.Fatalf("ReadMessage #%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream #%d:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := ReadMessage(buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestDecodeLeavesTail pins pipelining: Decode consumes exactly one
// frame and reports its size so the caller can resume at the next.
func TestDecodeLeavesTail(t *testing.T) {
	a, _ := Encode(&EmbedRequest{IDs: []int{1}})
	b, _ := Encode(&TopKRequest{ID: 2, K: 3})
	stream := append(append([]byte(nil), a...), b...)
	m1, n1, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != len(a) {
		t.Fatalf("first frame consumed %d bytes, want %d", n1, len(a))
	}
	m2, n2, err := Decode(stream[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(stream) {
		t.Fatalf("frames consumed %d bytes, want %d", n1+n2, len(stream))
	}
	if _, ok := m1.(*EmbedRequest); !ok {
		t.Fatalf("first message is %T", m1)
	}
	if _, ok := m2.(*TopKRequest); !ok {
		t.Fatalf("second message is %T", m2)
	}
}

// reseal recomputes the CRC trailer after a deliberate mutation, so
// tests exercise the structural checks rather than the checksum.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-trailerLen]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good, _ := Encode(&EmbedResponse{
		Version: 1, ModelVersion: 1, Dim: 2,
		IDs: []int{1, 2}, Vectors: [][]float64{{1, 2}, {3, 4}},
	})

	flipBody := append([]byte(nil), good...)
	flipBody[headerLen+3] ^= 0x40 // payload bit flip → checksum mismatch

	flipTrailer := append([]byte(nil), good...)
	flipTrailer[len(flipTrailer)-1] ^= 0x01

	badMagic := reseal(append([]byte("NOPE"), good[4:]...))

	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99
	badVersion = reseal(badVersion)

	badType := append([]byte(nil), good...)
	badType[5] = 0x7F
	badType = reseal(badType)

	// Declared payload length larger than the bytes present.
	overLong := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overLong[6:10], uint32(len(good)))

	// Declared length over the hard cap.
	overCap := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overCap[6:10], MaxPayload+1)

	// A tiny resealed embed-response frame declaring 2^31 ids: the
	// count cross-check must reject it before allocating anything.
	absurd := []byte(Magic)
	absurd = append(absurd, Version, byte(TEmbedResp))
	absurd = binary.LittleEndian.AppendUint32(absurd, 24)
	absurd = binary.LittleEndian.AppendUint64(absurd, 1)       // version
	absurd = binary.LittleEndian.AppendUint64(absurd, 1)       // model version
	absurd = binary.LittleEndian.AppendUint32(absurd, 4)       // dim
	absurd = binary.LittleEndian.AppendUint32(absurd, 1<<31-1) // id count
	absurd = binary.LittleEndian.AppendUint32(absurd, crc32.ChecksumIEEE(absurd))

	// Trailing garbage inside a resealed payload.
	trailing := append([]byte(nil), good[:len(good)-trailerLen]...)
	trailing = append(trailing, 0xAB)
	binary.LittleEndian.PutUint32(trailing[6:10], uint32(len(trailing)-headerLen))
	trailing = binary.LittleEndian.AppendUint32(trailing, crc32.ChecksumIEEE(trailing))

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"header only", good[:headerLen], "too short"},
		{"truncated payload", good[:len(good)-8], "available"},
		{"payload bit flip", flipBody, "checksum mismatch"},
		{"trailer bit flip", flipTrailer, "checksum mismatch"},
		{"bad magic", badMagic, "bad magic"},
		{"bad version", badVersion, "protocol version"},
		{"unknown type", badType, "unknown frame type"},
		{"declared length over data", overLong, "available"},
		{"declared length over cap", overCap, "cap"},
		{"absurd id count", absurd, "remain"},
		{"trailing payload bytes", trailing, "trailing"},
	}
	for _, tc := range cases {
		m, _, err := Decode(tc.data)
		if err == nil {
			t.Fatalf("%s: Decode accepted %#v", tc.name, m)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %q does not mention %q", tc.name, err, tc.want)
		}
		// The streaming path must reject the same bytes.
		if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(tc.data))); err == nil {
			t.Fatalf("%s: ReadMessage accepted the frame", tc.name)
		}
	}
}

func TestReadMessagePartialFrame(t *testing.T) {
	frame, _ := Encode(&EmbedRequest{IDs: []int{1, 2, 3}})
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame[:len(frame)-2]))); err == nil {
		t.Fatal("ReadMessage accepted a partial frame")
	}
	// A clean EOF between frames is io.EOF exactly, so connection
	// loops can distinguish shutdown from corruption.
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestEncodeRejectsOversizeStrings(t *testing.T) {
	m := &ErrorResponse{Status: 400, Message: strings.Repeat("x", math.MaxUint16+1)}
	if _, err := Encode(m); err == nil {
		t.Fatal("Encode accepted a string over the u16 length field")
	}
}

func TestModeMapping(t *testing.T) {
	for _, s := range []string{"", "exact", "ann"} {
		b, ok := ModeByte(s)
		if !ok {
			t.Fatalf("ModeByte(%q) not ok", s)
		}
		back, ok := ModeString(b)
		if !ok || back != s {
			t.Fatalf("mode %q -> %d -> %q", s, b, back)
		}
	}
	if _, ok := ModeByte("fuzzy"); ok {
		t.Fatal("ModeByte accepted an unknown mode")
	}
	if _, ok := ModeString(99); ok {
		t.Fatal("ModeString accepted an unknown byte")
	}
}

// BenchmarkCodec is the codec's developer number at a large point
// answer (8 ids x 256 floats, 16 KB): go test -run '^$' -bench Codec
// -benchmem ./internal/wire.
func BenchmarkCodec(b *testing.B) {
	m := embedAnswer(8, 256)
	frame, _ := Encode(m)
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, err := Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, _, err := Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
