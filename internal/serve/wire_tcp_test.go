package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gsgcn/internal/wire"
)

// wireFixture is the TCP twin of transportFixture: one registry with
// an unsharded default model "a" and a sharded model "s", serving both
// the HTTP surface and the persistent wire listener, so answers can be
// compared across transports on the same snapshots.
func wireFixture(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ds := testDataset(t, false)
	ckpt := trainAndSave(t, ds, 1, t.TempDir())
	reg := NewRegistry()
	t.Cleanup(reg.Close)
	a, err := reg.Add("a", ds, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := reg.AddSharded("s", ds, Options{Workers: 2}, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg)
	t.Cleanup(ts.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go reg.ServeWire(ln)
	return ts, ln.Addr().String()
}

// wireConn dials the listener and returns framed read/write helpers.
type wireConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func dialWire(t *testing.T, addr string) *wireConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireConn{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

func (c *wireConn) send(m wire.Message) {
	c.t.Helper()
	if err := wire.WriteMessage(c.bw, m); err != nil {
		c.t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *wireConn) recv() wire.Message {
	c.t.Helper()
	m, err := wire.ReadMessage(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return m
}

// TestServeWireAnswersAllRequestTypes drives every request frame type
// through the TCP listener — against the unsharded default model and
// the sharded one — and requires the embed answer to be bit-identical
// to the JSON answer for the same ids.
func TestServeWireAnswersAllRequestTypes(t *testing.T) {
	ts, addr := wireFixture(t)
	c := dialWire(t, addr)

	c.send(&wire.EmbedRequest{IDs: []int{0, 1}})
	em, ok := c.recv().(*wire.EmbedResponse)
	if !ok || len(em.Vectors) != 2 || em.Dim <= 0 {
		t.Fatalf("embed over TCP = %#v", em)
	}
	status, _, body := fetch(t, "GET", ts.URL+"/embed?ids=0,1", nil)
	if status != http.StatusOK {
		t.Fatalf("JSON embed = %d: %s", status, body)
	}
	var jr EmbedResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	for i := range jr.Vectors {
		for j := range jr.Vectors[i] {
			if math.Float64bits(jr.Vectors[i][j]) != math.Float64bits(em.Vectors[i][j]) {
				t.Fatalf("vector [%d][%d] differs across transports: %v vs %v",
					i, j, jr.Vectors[i][j], em.Vectors[i][j])
			}
		}
	}

	c.send(&wire.PredictRequest{Model: "s", IDs: []int{2}})
	pr, ok := c.recv().(*wire.PredictResponse)
	if !ok || len(pr.Labels) != 1 {
		t.Fatalf("predict over TCP = %#v", pr)
	}

	// K=0 means "not set": the server must apply its default k exactly
	// as the HTTP parser does for a missing k parameter.
	c.send(&wire.TopKRequest{Model: "s", ID: 0, K: 0, Mode: wire.ModeExact})
	tk, ok := c.recv().(*wire.TopKResponse)
	if !ok || tk.K <= 0 || len(tk.Neighbors) == 0 {
		t.Fatalf("topk (default k) over TCP = %#v", tk)
	}
	c.send(&wire.TopKRequest{ID: 1, K: 3, Mode: wire.ModeAuto})
	tk, ok = c.recv().(*wire.TopKResponse)
	if !ok || tk.K != 3 || len(tk.Neighbors) != 3 {
		t.Fatalf("topk k=3 over TCP = %#v", tk)
	}
}

// TestServeWireErrorFrames pins the error-frame contract: rejections
// come back as ErrorResponse frames with the HTTP status and message
// text of the JSON envelope, and — unlike framing errors — they leave
// the connection usable.
func TestServeWireErrorFrames(t *testing.T) {
	_, addr := wireFixture(t)
	c := dialWire(t, addr)
	cases := []struct {
		label   string
		req     wire.Message
		status  int
		message string
	}{
		{"unknown model", &wire.EmbedRequest{Model: "nope", IDs: []int{0}},
			http.StatusNotFound, `serve: unknown model "nope"`},
		{"no ids", &wire.PredictRequest{IDs: nil},
			http.StatusBadRequest, "serve: no ids given"},
		{"bad mode byte", &wire.TopKRequest{ID: 0, K: 3, Mode: 0x7f},
			http.StatusBadRequest, "serve: bad mode parameter"},
		{"id out of range", &wire.TopKRequest{ID: 1 << 30, K: 3},
			http.StatusBadRequest, "out of range"},
		{"not a request", &wire.ErrorResponse{Status: 200},
			http.StatusBadRequest, "serve: frame type 0xee is not a request"},
	}
	for _, tc := range cases {
		c.send(tc.req)
		er, ok := c.recv().(*wire.ErrorResponse)
		if !ok {
			t.Fatalf("%s: got %#v, want an error frame", tc.label, er)
		}
		if er.Status != tc.status || !strings.Contains(er.Message, tc.message) {
			t.Errorf("%s = %d %q, want %d containing %q",
				tc.label, er.Status, er.Message, tc.status, tc.message)
		}
	}
	// The connection survived five rejections: a real query still works.
	c.send(&wire.EmbedRequest{IDs: []int{0}})
	if em, ok := c.recv().(*wire.EmbedResponse); !ok || len(em.Vectors) != 1 {
		t.Fatalf("query after error frames = %#v", em)
	}
}

// jsonBody renders a response frame as the body the HTTP-JSON surface
// writes for the same answer, so a TCP answer can be held against the
// HTTP one byte for byte.
func jsonBody(t *testing.T, m wire.Message) []byte {
	t.Helper()
	var res any
	switch m := m.(type) {
	case *wire.EmbedResponse:
		res = (*EmbedResult)(m)
	case *wire.PredictResponse:
		res = (*PredictResult)(m)
	case *wire.TopKResponse:
		mode, _ := wire.ModeString(m.Mode)
		tk := &TopKResult{Version: m.Version, ModelVersion: m.ModelVersion, ID: m.ID, K: m.K,
			Mode: mode, Ef: m.Ef, Degraded: m.Degraded, Neighbors: make([]Neighbor, len(m.Neighbors))}
		for i, n := range m.Neighbors {
			tk.Neighbors[i] = Neighbor{ID: n.ID, Score: n.Score}
		}
		res = tk
	default:
		t.Fatalf("no JSON body for frame %#v", m)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, res)
	return rec.Body.Bytes()
}

// TestServeWirePipelinedOrder sends a mixed burst — top-K, embed and
// predict interleaved, against an unsharded and a sharded model,
// including top-K frames followed at once by point frames — without
// waiting for answers. Point frames are answered on the connection's
// reader, top-K frames on goroutines of their own; responses must
// still come back strictly in request order, each byte-identical to
// the HTTP-JSON answer for the same query.
func TestServeWirePipelinedOrder(t *testing.T) {
	ts, addr := wireFixture(t)
	c := dialWire(t, addr)
	type query struct {
		req  wire.Message
		path string
	}
	var burst []query
	for i := 0; i < 8; i++ {
		model, base := "", ""
		if i%2 == 1 {
			model, base = "s", "/models/s"
		}
		a, b := i%8, (i+3)%8
		burst = append(burst,
			query{&wire.TopKRequest{Model: model, ID: a, K: 3, Mode: wire.ModeExact},
				fmt.Sprintf("%s/topk?id=%d&k=3&mode=exact", base, a)},
			query{&wire.EmbedRequest{Model: model, IDs: []int{a}},
				fmt.Sprintf("%s/embed?ids=%d", base, a)},
			query{&wire.PredictRequest{Model: model, IDs: []int{b, a}},
				fmt.Sprintf("%s/predict?ids=%d,%d", base, b, a)},
			query{&wire.TopKRequest{Model: model, ID: b, K: 2},
				fmt.Sprintf("%s/topk?id=%d&k=2", base, b)},
			query{&wire.TopKRequest{Model: model, ID: a, K: 1, Mode: wire.ModeExact},
				fmt.Sprintf("%s/topk?id=%d&k=1&mode=exact", base, a)},
			query{&wire.EmbedRequest{Model: model, IDs: []int{b, a, b}},
				fmt.Sprintf("%s/embed?ids=%d,%d,%d", base, b, a, b)},
		)
	}
	for _, q := range burst {
		c.send(q.req)
	}
	for i, q := range burst {
		got := c.recv()
		if _, failed := got.(*wire.ErrorResponse); failed {
			t.Fatalf("response %d (%s): %#v", i, q.path, got)
		}
		status, _, want := fetch(t, "GET", ts.URL+q.path, nil)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", q.path, status, want)
		}
		if body := jsonBody(t, got); !bytes.Equal(body, want) {
			t.Fatalf("response %d is not the answer to %s — pipeline out of order, or the transports differ:\n tcp  %s\n http %s",
				i, q.path, body, want)
		}
	}
}

// TestServeWireMalformedFrameClosesConn: once the stream is off by a
// byte, framing is unrecoverable — the server answers one error frame
// and hangs up.
func TestServeWireMalformedFrameClosesConn(t *testing.T) {
	_, addr := wireFixture(t)
	c := dialWire(t, addr)
	if _, err := c.conn.Write([]byte("this is not a GSGW frame......")); err != nil {
		t.Fatal(err)
	}
	er, ok := c.recv().(*wire.ErrorResponse)
	if !ok || er.Status != http.StatusBadRequest {
		t.Fatalf("malformed frame answer = %#v", er)
	}
	if _, err := wire.ReadMessage(c.br); err == nil {
		t.Fatal("connection stayed open after a framing error")
	}
}

// TestServeWireEmptyRegistry: a frame addressed to the default model
// of an empty registry fails 503 like the HTTP surface does.
func TestServeWireEmptyRegistry(t *testing.T) {
	reg := NewRegistry()
	t.Cleanup(reg.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go reg.ServeWire(ln)
	c := dialWire(t, ln.Addr().String())
	c.send(&wire.EmbedRequest{IDs: []int{0}})
	er, ok := c.recv().(*wire.ErrorResponse)
	if !ok || er.Status != http.StatusServiceUnavailable || er.Message != "serve: no models registered" {
		t.Fatalf("empty registry answer = %#v", er)
	}
}
