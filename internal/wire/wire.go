// Package wire implements the serving plane's deterministic binary
// protocol: length-prefixed frames carrying embed/predict/topk
// requests and responses with little-endian float64 rows, so a client
// can decode answers that are bit-identical to the JSON API without
// paying float formatting/parsing on either side.
//
// Frame layout (fixed framing, no varints), all integers
// little-endian:
//
//	[0:4]    magic "GSGW"
//	[4]      u8 protocol version (1)
//	[5]      u8 frame type
//	[6:10]   u32 payload length N
//	[10:10+N] payload
//	trailer: u32 CRC-32 (IEEE) of every preceding byte
//
// Payload encodings are fixed-layout per frame type: strings are
// u16-length-prefixed UTF-8, vertex ids are u64, floats are
// math.Float64bits. Decoding validates the magic, version, declared
// length (capped at MaxPayload) and CRC trailer, and cross-checks
// every element count against the bytes actually present before
// allocating, so a truncated, corrupted or hostile frame fails with a
// clean error — never a panic, short read or unbounded allocation
// (FuzzDecode, mirroring the artifact/checkpoint loaders).
//
// A frame is moved once per hop. Every message knows its exact payload
// length, so AppendFrame grows its destination at most once and Encode
// allocates once; WriteMessage encodes straight into the connection's
// bufio.Writer, and ReadMessage checksums and parses a frame where the
// connection's bufio.Reader holds it when it fits that buffer, reading
// into one buffer of the frame's size when it does not. Either way a
// decoded message owns all of its memory — strings, ids and rows are
// copied out, a response's rows as capped sub-slices of one array — so
// nothing aliases a buffer the next read overwrites.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// Magic opens every frame.
	Magic = "GSGW"
	// Version is the protocol version carried in byte 4.
	Version = 1
	// MaxPayload caps the payload length a decoder will accept or an
	// encoder will produce (64 MiB — far above any real response, low
	// enough that four hostile header bytes cannot demand gigabytes).
	MaxPayload = 1 << 26
	// headerLen and trailerLen bracket the payload.
	headerLen  = 10
	trailerLen = 4

	// ContentType is the HTTP media type that selects this protocol
	// via content negotiation (Accept / Content-Type headers).
	ContentType = "application/x-gsgcn-wire"

	// ConnBufSize sizes the buffered side of a framed connection that
	// carries answers — the server's writer, the client's reader — from
	// the largest common point answer (3 ids x 256 x 8 B = 6.2 KB): at
	// bufio's 4 KB default every two-id answer bypasses the buffer.
	ConnBufSize = 16 << 10
)

// Type identifies what a frame carries.
type Type byte

// Frame types. Requests have the high bit clear, responses set;
// TError answers any request that failed.
const (
	TEmbedReq    Type = 0x01
	TPredictReq  Type = 0x02
	TTopKReq     Type = 0x03
	TEmbedResp   Type = 0x81
	TPredictResp Type = 0x82
	TTopKResp    Type = 0x83
	TError       Type = 0xEE
)

// Top-K mode bytes: the wire form of the API's mode strings.
const (
	ModeAuto  byte = 0
	ModeExact byte = 1
	ModeANN   byte = 2
)

// ModeByte maps an API mode string ("", "exact", "ann") to its wire
// byte. Unknown strings report ok=false.
func ModeByte(s string) (b byte, ok bool) {
	switch s {
	case "":
		return ModeAuto, true
	case "exact":
		return ModeExact, true
	case "ann":
		return ModeANN, true
	}
	return 0, false
}

// ModeString maps a wire mode byte back to the API string. Unknown
// bytes report ok=false.
func ModeString(b byte) (s string, ok bool) {
	switch b {
	case ModeAuto:
		return "", true
	case ModeExact:
		return "exact", true
	case ModeANN:
		return "ann", true
	}
	return "", false
}

// Message is any frame payload this package can encode and decode.
type Message interface {
	// FrameType reports the type byte the message travels under.
	FrameType() Type
	// payloadLen is the exact number of bytes appendPayload appends.
	payloadLen() int
	appendPayload(buf []byte) []byte
}

// EmbedRequest asks for embedding rows. An empty Model addresses the
// default model.
type EmbedRequest struct {
	Model string
	IDs   []int
}

// PredictRequest asks for label predictions. An empty Model addresses
// the default model.
type PredictRequest struct {
	Model string
	IDs   []int
}

// TopKRequest asks for the k nearest neighbors of one vertex. K == 0
// and Ef == 0 mean "unset" and take the API's defaults, exactly like
// omitting the query parameters on the HTTP surface.
type TopKRequest struct {
	Model string
	ID    int
	K     int
	Mode  byte
	Ef    int
}

// EmbedResponse mirrors the JSON embed result: Vectors[i] is the
// embedding row for IDs[i], Dim floats wide.
type EmbedResponse struct {
	Version      uint64
	ModelVersion uint64
	Dim          int
	IDs          []int
	Vectors      [][]float64
}

// PredictResponse mirrors the JSON predict result.
type PredictResponse struct {
	Version      uint64
	ModelVersion uint64
	Classes      int
	MultiLabel   bool
	IDs          []int
	Labels       [][]int
	Probs        [][]float64
}

// Neighbor is one scored top-K hit.
type Neighbor struct {
	ID    int
	Score float64
}

// TopKResponse mirrors the JSON topk result. Mode is the resolved
// mode byte (ModeExact or ModeANN); Ef is 0 unless the ANN path ran.
type TopKResponse struct {
	Version      uint64
	ModelVersion uint64
	ID           int
	K            int
	Mode         byte
	Ef           int
	Degraded     bool
	Neighbors    []Neighbor
}

// ErrorResponse carries a failed request's HTTP-equivalent status and
// the same error/reason strings the JSON envelope would hold, so both
// transports fail identically.
type ErrorResponse struct {
	Status  int
	Reason  string
	Message string
}

// FrameType implements Message.
func (*EmbedRequest) FrameType() Type { return TEmbedReq }

// FrameType implements Message.
func (*PredictRequest) FrameType() Type { return TPredictReq }

// FrameType implements Message.
func (*TopKRequest) FrameType() Type { return TTopKReq }

// FrameType implements Message.
func (*EmbedResponse) FrameType() Type { return TEmbedResp }

// FrameType implements Message.
func (*PredictResponse) FrameType() Type { return TPredictResp }

// FrameType implements Message.
func (*TopKResponse) FrameType() Type { return TTopKResp }

// FrameType implements Message.
func (*ErrorResponse) FrameType() Type { return TError }

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// grow returns buf with room for n more bytes, reallocating to exactly
// that size when it has less. (slices.Grow would do, but allocates a
// second, temporary slice in race-instrumented builds, which the
// allocation ceilings in this package's tests would then have to
// excuse.)
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	return append(make([]byte, 0, len(buf)+n), buf...)
}

// extend lengthens buf by n bytes and returns it with the new tail,
// so a run of fixed-width values is stored by one loop whose bounds
// are settled here rather than by an append per element.
func extend(buf []byte, n int) (grown, tail []byte) {
	at := len(buf)
	buf = grow(buf, n)[:at+n]
	return buf, buf[at:]
}

func appendIDs(buf []byte, ids []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	buf, out := extend(buf, 8*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(id))
	}
	return buf
}

func appendF64s(buf []byte, xs []float64) []byte {
	buf, out := extend(buf, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return buf
}

func strLen(s string) int  { return 2 + len(s) }
func idsLen(ids []int) int { return 4 + 8*len(ids) }

func (m *EmbedRequest) payloadLen() int { return strLen(m.Model) + idsLen(m.IDs) }

func (m *EmbedRequest) appendPayload(buf []byte) []byte {
	buf = appendStr(buf, m.Model)
	return appendIDs(buf, m.IDs)
}

func (m *PredictRequest) payloadLen() int { return strLen(m.Model) + idsLen(m.IDs) }

func (m *PredictRequest) appendPayload(buf []byte) []byte {
	buf = appendStr(buf, m.Model)
	return appendIDs(buf, m.IDs)
}

func (m *TopKRequest) payloadLen() int { return strLen(m.Model) + 8 + 4 + 1 + 4 }

func (m *TopKRequest) appendPayload(buf []byte) []byte {
	buf = appendStr(buf, m.Model)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.K))
	buf = append(buf, m.Mode)
	return binary.LittleEndian.AppendUint32(buf, uint32(m.Ef))
}

func (m *EmbedResponse) payloadLen() int {
	n := 8 + 8 + 4 + idsLen(m.IDs)
	for _, row := range m.Vectors {
		n += 8 * len(row)
	}
	return n
}

func (m *EmbedResponse) appendPayload(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.ModelVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Dim))
	buf = appendIDs(buf, m.IDs)
	for _, row := range m.Vectors {
		buf = appendF64s(buf, row)
	}
	return buf
}

func (m *PredictResponse) payloadLen() int {
	n := 8 + 8 + 4 + 1 + idsLen(m.IDs)
	for _, labels := range m.Labels {
		n += 4 + 4*len(labels)
	}
	for _, probs := range m.Probs {
		n += 4 + 8*len(probs)
	}
	return n
}

func (m *PredictResponse) appendPayload(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.ModelVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Classes))
	var multi byte
	if m.MultiLabel {
		multi = 1
	}
	buf = append(buf, multi)
	buf = appendIDs(buf, m.IDs)
	for _, labels := range m.Labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(labels)))
		for _, l := range labels {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		}
	}
	for _, probs := range m.Probs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(probs)))
		buf = appendF64s(buf, probs)
	}
	return buf
}

func (m *TopKResponse) payloadLen() int { return 8 + 8 + 8 + 4 + 1 + 4 + 1 + 4 + 16*len(m.Neighbors) }

func (m *TopKResponse) appendPayload(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Version)
	buf = binary.LittleEndian.AppendUint64(buf, m.ModelVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.K))
	buf = append(buf, m.Mode)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ef))
	var degraded byte
	if m.Degraded {
		degraded = 1
	}
	buf = append(buf, degraded)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Neighbors)))
	buf, out := extend(buf, 16*len(m.Neighbors))
	for i, n := range m.Neighbors {
		binary.LittleEndian.PutUint64(out[16*i:], uint64(n.ID))
		binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(n.Score))
	}
	return buf
}

func (m *ErrorResponse) payloadLen() int { return 4 + strLen(m.Reason) + strLen(m.Message) }

func (m *ErrorResponse) appendPayload(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Status))
	buf = appendStr(buf, m.Reason)
	return appendStr(buf, m.Message)
}

// Encode serializes a message as one complete frame, in one
// allocation of the frame's exact size. Deterministic: equal messages
// encode to equal bytes. It fails if a string exceeds the u16 length
// field or the payload exceeds MaxPayload.
func Encode(m Message) ([]byte, error) {
	return AppendFrame(nil, m)
}

// AppendFrame appends m's complete frame to dst, growing dst at most
// once, and returns the extended slice; on error dst is returned as it
// came and nothing was appended. The frame's bytes are Encode's.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	if err := checkEncodable(m); err != nil {
		return dst, err
	}
	n := m.payloadLen()
	if n > MaxPayload {
		return dst, fmt.Errorf("wire: payload is %d bytes, cap %d", n, MaxPayload)
	}
	start := len(dst)
	buf := grow(dst, headerLen+n+trailerLen)
	buf = append(buf, Magic...)
	buf = append(buf, Version, byte(m.FrameType()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = m.appendPayload(buf)
	if got := len(buf) - start - headerLen; got != n {
		// The header is already written with n: a message whose two
		// methods disagree is a bug in this package, not bad input.
		panic(fmt.Sprintf("wire: %T wrote %d payload bytes, payloadLen said %d", m, got, n))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// checkEncodable rejects messages whose variable-length fields do not
// fit their wire length prefixes, before any bytes are produced.
func checkEncodable(m Message) error {
	str := func(s string) error {
		if len(s) > math.MaxUint16 {
			return fmt.Errorf("wire: string field is %d bytes, cap %d", len(s), math.MaxUint16)
		}
		return nil
	}
	switch m := m.(type) {
	case *EmbedRequest:
		return str(m.Model)
	case *PredictRequest:
		return str(m.Model)
	case *TopKRequest:
		return str(m.Model)
	case *ErrorResponse:
		if err := str(m.Reason); err != nil {
			return err
		}
		return str(m.Message)
	}
	return nil
}

// reader is a bounds-checked cursor over a frame payload. The first
// out-of-bounds read latches err; every later read returns zero
// values, so parse code can run straight-line and check once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload (%d bytes)", len(r.b))
	}
}

func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() int {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return int(v)
}

func (r *reader) u32() int {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(v)
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// f64s fills dst from the next 8*len(dst) payload bytes: one bounds
// check for the run, not one per element.
func (r *reader) f64s(dst []float64) {
	if r.err != nil || r.off+8*len(dst) > len(r.b) {
		r.fail()
		return
	}
	src := r.b[r.off : r.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += len(src)
}

func (r *reader) str() string {
	n := r.u16()
	if r.err != nil || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// remaining reports the unread payload bytes: the allocation bound
// every declared count is cross-checked against.
func (r *reader) remaining() int { return len(r.b) - r.off }

// count reads a u32 element count and verifies the payload actually
// carries count elements of elemSize bytes before the caller
// allocates for them.
func (r *reader) count(elemSize int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(r.remaining()) {
		r.err = fmt.Errorf("wire: count %d needs %d bytes, %d remain", n, int64(n)*int64(elemSize), r.remaining())
		return 0
	}
	return n
}

func (r *reader) ids() []int {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	ids := make([]int, n)
	src := r.b[r.off : r.off+8*n] // count checked that these bytes are here
	for i := range ids {
		ids[i] = int(binary.LittleEndian.Uint64(src[8*i:]))
	}
	r.off += len(src)
	return ids
}

// done fails the parse if an error latched or payload bytes remain
// unconsumed (a trailing-garbage frame is corrupt, not extensible).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

func parsePayload(t Type, payload []byte) (Message, error) {
	r := &reader{b: payload}
	var m Message
	switch t {
	case TEmbedReq:
		m = &EmbedRequest{Model: r.str(), IDs: r.ids()}
	case TPredictReq:
		m = &PredictRequest{Model: r.str(), IDs: r.ids()}
	case TTopKReq:
		m = &TopKRequest{
			Model: r.str(),
			ID:    int(r.u64()),
			K:     r.u32(),
			Mode:  r.u8(),
			Ef:    r.u32(),
		}
	case TEmbedResp:
		resp := &EmbedResponse{
			Version:      r.u64(),
			ModelVersion: r.u64(),
			Dim:          r.u32(),
			IDs:          r.ids(),
		}
		if r.err == nil {
			n := len(resp.IDs)
			if resp.Dim < 0 || int64(n)*int64(resp.Dim)*8 > int64(r.remaining()) {
				r.err = fmt.Errorf("wire: %dx%d vector block exceeds the %d remaining bytes", n, resp.Dim, r.remaining())
			} else {
				// One backing array for the block; each row is capped at
				// its own end, so an append to one cannot reach the next.
				dim := resp.Dim
				flat := make([]float64, n*dim)
				r.f64s(flat)
				resp.Vectors = make([][]float64, n)
				for i := range resp.Vectors {
					resp.Vectors[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
				}
			}
		}
		m = resp
	case TPredictResp:
		resp := &PredictResponse{
			Version:      r.u64(),
			ModelVersion: r.u64(),
			Classes:      r.u32(),
			MultiLabel:   r.u8() != 0,
			IDs:          r.ids(),
		}
		if r.err == nil {
			n := len(resp.IDs)
			resp.Labels = make([][]int, n)
			for i := range resp.Labels {
				cnt := r.count(4)
				if r.err != nil {
					break
				}
				labels := make([]int, cnt)
				for j := range labels {
					labels[j] = int(int32(r.u32()))
				}
				resp.Labels[i] = labels
			}
			if r.err == nil {
				resp.Probs = make([][]float64, n)
				for i := range resp.Probs {
					cnt := r.count(8)
					if r.err != nil {
						break
					}
					resp.Probs[i] = make([]float64, cnt)
					r.f64s(resp.Probs[i])
				}
			}
		}
		m = resp
	case TTopKResp:
		resp := &TopKResponse{
			Version:      r.u64(),
			ModelVersion: r.u64(),
			ID:           int(r.u64()),
			K:            r.u32(),
			Mode:         r.u8(),
			Ef:           r.u32(),
			Degraded:     r.u8() != 0,
		}
		cnt := r.count(16)
		if r.err == nil {
			resp.Neighbors = make([]Neighbor, cnt)
			for i := range resp.Neighbors {
				resp.Neighbors[i] = Neighbor{ID: int(r.u64()), Score: r.f64()}
			}
		}
		m = resp
	case TError:
		m = &ErrorResponse{Status: r.u32(), Reason: r.str(), Message: r.str()}
	default:
		return nil, fmt.Errorf("wire: unknown frame type 0x%02x", byte(t))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkHeader validates a complete 10-byte frame header and returns
// the declared payload length.
func checkHeader(hdr []byte) (int, error) {
	if string(hdr[:4]) != Magic {
		return 0, fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("wire: protocol version %d, want %d", hdr[4], Version)
	}
	n := binary.LittleEndian.Uint32(hdr[6:10])
	if n > MaxPayload {
		return 0, fmt.Errorf("wire: payload declares %d bytes, cap %d", n, MaxPayload)
	}
	return int(n), nil
}

// parseFrame verifies the CRC trailer of one complete frame whose
// header checkHeader accepted, and parses its payload. The message
// keeps no reference into frame.
func parseFrame(frame []byte) (Message, error) {
	body := frame[:len(frame)-trailerLen]
	stored := binary.LittleEndian.Uint32(frame[len(body):])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return nil, fmt.Errorf("wire: checksum mismatch (stored %08x, computed %08x) — frame corrupt", stored, got)
	}
	return parsePayload(Type(frame[5]), body[headerLen:])
}

// Decode parses one complete frame from the front of data and returns
// the message plus the frame's total size in bytes. Extra bytes after
// the frame are left for the caller (pipelined streams).
func Decode(data []byte) (Message, int, error) {
	if len(data) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("wire: %d bytes is too short for a frame", len(data))
	}
	n, err := checkHeader(data[:headerLen])
	if err != nil {
		return nil, 0, err
	}
	total := headerLen + n + trailerLen
	if len(data) < total {
		return nil, 0, fmt.Errorf("wire: frame declares %d bytes, %d available", total, len(data))
	}
	m, err := parseFrame(data[:total])
	if err != nil {
		return nil, 0, err
	}
	return m, total, nil
}

// ReadMessage reads exactly one frame from br. A frame that fits br's
// buffer is checksummed and parsed where br holds it; a larger one is
// read into one buffer of the frame's size, bounded by the validated
// header, never by a hostile length alone (MaxPayload cap). io.EOF
// before any byte means a clean end of stream; a partial frame
// surfaces as io.ErrUnexpectedEOF.
func ReadMessage(br *bufio.Reader) (Message, error) {
	hdr, err := br.Peek(headerLen)
	if err != nil {
		if err == io.EOF {
			if len(hdr) == 0 {
				return nil, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n, err := checkHeader(hdr)
	if err != nil {
		return nil, err
	}
	total := headerLen + n + trailerLen
	var frame []byte
	if total <= br.Size() {
		frame, err = br.Peek(total)
		defer br.Discard(len(frame)) // after the parse: it reads br's buffer
	} else {
		frame = make([]byte, total)
		_, err = io.ReadFull(br, frame)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading %d-byte payload: %w", n, err)
	}
	return parseFrame(frame)
}

// WriteMessage encodes m into bw: in place in bw's buffer when the
// frame fits what is free there, through one buffer of the frame's
// size when it does not. The caller flushes.
func WriteMessage(bw *bufio.Writer, m Message) error {
	frame, err := AppendFrame(bw.AvailableBuffer(), m)
	if err != nil {
		return err
	}
	_, err = bw.Write(frame)
	return err
}
