package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gsgcn/internal/serve"
	"gsgcn/internal/wire"
)

// tcpClient speaks the persistent framed transport. Requests from
// any number of goroutines are pipelined onto one connection; the
// server guarantees responses in request order, so a FIFO of pending
// reply slots pairs every answer with its caller. A caller that gives
// up (context expiry) leaves its buffered slot behind — the reader
// still fills it, keeping the FIFO aligned.
type tcpClient struct {
	model   string
	timeout time.Duration

	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex // serializes write+enqueue so frame order == FIFO order

	pending chan chan wire.Message

	done    chan struct{} // closed when the reader exits
	readErr error         // valid after done; the error that killed the connection
}

// dialTCP connects and starts the reader. cfg.Addr is host:port.
func dialTCP(cfg Config) (*tcpClient, error) {
	conn, err := net.DialTimeout("tcp", cfg.Addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &tcpClient{
		model:   cfg.Model,
		timeout: cfg.Timeout,
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: make(chan chan wire.Message, 1024),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop pairs incoming frames with waiting callers in FIFO order.
// Every pending slot is buffered, so delivery never blocks on an
// abandoned caller. On read error the loop exits; roundTrip observes
// done and reports readErr.
func (c *tcpClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, wire.ConnBufSize)
	for {
		msg, err := wire.ReadMessage(br)
		if err != nil {
			c.readErr = fmt.Errorf("client: wire connection lost: %w", err)
			close(c.done)
			return
		}
		select {
		case slot := <-c.pending:
			slot <- msg
		default:
			// A frame nobody asked for: protocol violation.
			c.readErr = fmt.Errorf("client: unsolicited frame %T from server", msg)
			close(c.done)
			return
		}
	}
}

// roundTrip writes one request frame and waits for its answer. The
// frame is encoded before its reply slot joins the FIFO: a request
// that cannot be encoded sends nothing, so it must leave no slot
// behind to misalign every later answer. The slot is in the FIFO
// before the first byte can reach the server, so an answer never
// arrives ahead of it.
func (c *tcpClient) roundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	slot := make(chan wire.Message, 1)
	c.wmu.Lock()
	select {
	case <-c.done:
		c.wmu.Unlock()
		return nil, c.readErr
	default:
	}
	frame, err := wire.AppendFrame(c.bw.AvailableBuffer(), req)
	if err != nil {
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: writing request frame: %w", err)
	}
	select {
	case c.pending <- slot:
	default:
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: too many in-flight requests on one connection")
	}
	if _, err = c.bw.Write(frame); err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("client: writing request frame: %w", err)
	}
	select {
	case msg := <-slot:
		return refusal(msg)
	case <-c.done:
		return nil, c.readErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *tcpClient) Embed(ctx context.Context, ids []int) (*serve.EmbedResult, error) {
	msg, err := c.roundTrip(ctx, &wire.EmbedRequest{Model: c.model, IDs: ids})
	if err != nil {
		return nil, err
	}
	return embedResult(msg)
}

func (c *tcpClient) Predict(ctx context.Context, ids []int) (*serve.PredictResult, error) {
	msg, err := c.roundTrip(ctx, &wire.PredictRequest{Model: c.model, IDs: ids})
	if err != nil {
		return nil, err
	}
	return predictResult(msg)
}

func (c *tcpClient) TopK(ctx context.Context, q TopKQuery) (*serve.TopKResult, error) {
	mode, ok := wire.ModeByte(q.Mode)
	if !ok {
		// Send the invalid mode anyway? No: the wire grammar cannot
		// carry it, so reject with the server's exact wording to keep
		// error surfaces aligned across transports.
		return nil, &APIError{Status: 400,
			Message: fmt.Sprintf("serve: bad mode parameter %q (want exact or ann)", q.Mode)}
	}
	msg, err := c.roundTrip(ctx, &wire.TopKRequest{
		Model: c.model, ID: q.ID, K: q.K, Mode: mode, Ef: q.Ef,
	})
	if err != nil {
		return nil, err
	}
	return topkResult(msg)
}

func (c *tcpClient) Close() error {
	err := c.conn.Close()
	<-c.done // reader exits once the connection is closed
	return err
}
