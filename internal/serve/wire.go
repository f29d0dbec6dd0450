package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"

	"gsgcn/internal/wire"
)

// This file is the serving plane's binary-transport integration: the
// HTTP content negotiation that lets any query endpoint answer with a
// wire frame instead of JSON, and the registry's persistent-connection
// TCP listener, whose frames run the same operations (query.go) as the
// HTTP handlers. Every transport answers from identical result
// structs, so a decoded wire answer is bit-identical to the JSON
// answer (test-enforced in pkg/client).

// wantsWire reports whether the request negotiated the binary wire
// encoding for its response body.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.ContentType)
}

// writeWire emits one wire frame as the HTTP response body. Encode can
// only fail on a string field overflowing its u16 length prefix, which
// wireErrFor already truncates away, so the fallback is unreachable in
// practice.
func writeWire(w http.ResponseWriter, status int, m wire.Message) {
	frame, err := wire.Encode(m)
	if err != nil {
		writeErr(w, refusal{errInternal, err.Error()})
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(frame)
}

// wireErrFor maps an error to its wire frame: the same errorTable
// status and reason and the same message the JSON envelope carries,
// so every transport fails identically. The message is truncated to
// the u16 string cap so encoding cannot fail.
func wireErrFor(err error) *wire.ErrorResponse {
	status, reason := classify(err)
	msg := err.Error()
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	return &wire.ErrorResponse{Status: status, Reason: reason, Message: msg}
}

// wireResp converts a query operation's result to its response frame.
func wireResp(res any) wire.Message {
	switch res := res.(type) {
	case *EmbedResult:
		// The point frames mirror their results field for field, so the
		// compiler checks the conversion (struct tags do not count).
		return (*wire.EmbedResponse)(res)
	case *PredictResult:
		return (*wire.PredictResponse)(res)
	case *TopKResult:
		mode, _ := wire.ModeByte(res.Mode)
		nbs := make([]wire.Neighbor, len(res.Neighbors))
		for i, n := range res.Neighbors {
			nbs[i] = wire.Neighbor{ID: n.ID, Score: n.Score}
		}
		return &wire.TopKResponse{
			Version:      res.Version,
			ModelVersion: res.ModelVersion,
			ID:           res.ID,
			K:            res.K,
			Mode:         mode,
			Ef:           res.Ef,
			Degraded:     res.Degraded,
			Neighbors:    nbs,
		}
	}
	panic(fmt.Sprintf("serve: no wire frame for %T", res))
}

// writeQuery writes a query operation's outcome — answer or error — in
// the negotiated encoding. Only the query endpoints negotiate —
// control-plane bodies (health, reload, listings) stay JSON-only.
func writeQuery(w http.ResponseWriter, r *http.Request, res any, err error) {
	switch {
	case err != nil && wantsWire(r):
		frame := wireErrFor(err)
		writeWire(w, frame.Status, frame)
	case err != nil:
		writeErr(w, err)
	case wantsWire(r):
		writeWire(w, http.StatusOK, wireResp(res))
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// ServeWire accepts persistent wire-protocol connections on l and
// serves framed requests until the listener closes (its error is
// returned). Each connection carries pipelined frames through HTTP's
// admission and deadline machinery; responses keep request order.
func (r *Registry) ServeWire(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go r.serveWireConn(conn)
	}
}

// serveWireConn runs one persistent connection on two goroutines. The
// reader decodes frames and answers an embed or predict frame itself —
// microseconds of work, less than a goroutine hand-off — passing the
// writer a slot that is already filled. A top-K frame (hundreds of
// microseconds, a probe of every live shard) gets its own goroutine and an
// empty slot, so pipelined top-K queries still run beside each other
// and beside the point frames behind them; the frame's type alone
// decides. The writer drains slots strictly in request order and
// flushes when the pipeline runs dry. A malformed frame answers with an error frame and closes the
// connection: framing is unrecoverable once the stream is off by a byte.
func (r *Registry) serveWireConn(conn net.Conn) {
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, wire.ConnBufSize)
	slots := make(chan chan wire.Message, 128)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var werr error
		for slot := range slots {
			m := <-slot
			if werr != nil {
				continue // peer gone; keep draining so answerers never block
			}
			if werr = wire.WriteMessage(bw, m); werr == nil && len(slots) == 0 {
				werr = bw.Flush()
			}
		}
		if werr == nil {
			_ = bw.Flush()
		}
	}()
	for {
		msg, err := wire.ReadMessage(br)
		if err != nil {
			if err != io.EOF {
				slot := make(chan wire.Message, 1)
				slot <- wireErrFor(err)
				slots <- slot
			}
			break
		}
		slot := make(chan wire.Message, 1)
		if msg.FrameType() == wire.TTopKReq {
			go func() { slot <- r.answerWire(ctx, msg) }()
		} else {
			slot <- r.answerWire(ctx, msg)
		}
		slots <- slot
	}
	close(slots)
	<-done
}

// answerWire is the framed-TCP codec: it resolves the model a decoded
// request frame addresses, runs the frame's operation and converts
// the answer (or error) back to a frame. Every frame counts toward
// gsgcn_requests_total{transport="wire"} under the model it addressed
// (the registry's own label for unresolvable frames).
func (r *Registry) answerWire(ctx context.Context, msg wire.Message) wire.Message {
	var (
		model   string
		ids     []int
		predict bool
		topk    *wire.TopKRequest
	)
	switch m := msg.(type) {
	case *wire.EmbedRequest:
		model, ids = m.Model, m.IDs
	case *wire.PredictRequest:
		model, ids, predict = m.Model, m.IDs, true
	case *wire.TopKRequest:
		model, topk = m.Model, m
	default:
		r.inst.countWire()
		return wireErrFor(fmt.Errorf("serve: frame type 0x%02x is not a request", byte(msg.FrameType())))
	}
	_, srv, err := r.model(model, true)
	if err != nil {
		r.inst.countWire()
		return wireErrFor(err)
	}
	srv.inst.countWire()
	var res any
	if topk == nil {
		res, err = srv.point(ctx, func() ([]int, error) { return ids, nil }, predict)
	} else {
		res, err = srv.topK(ctx, func() (topkQuery, error) {
			mode, ok := wire.ModeString(topk.Mode)
			if !ok {
				// Surface the unknown byte through the same bad-mode
				// error the HTTP parser emits for an unknown mode string.
				mode = fmt.Sprintf("0x%02x", topk.Mode)
			}
			ann, err := srv.opts.queryMode(mode)
			if err != nil {
				return topkQuery{}, err
			}
			return resolveTopK(topkQuery{id: topk.ID, k: topk.K, ann: ann, ef: topk.Ef}, topk.K != 0, srv.ds.G.NumVertices())
		})
	}
	if err != nil {
		return wireErrFor(err)
	}
	return wireResp(res)
}
