package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"gsgcn/internal/serve"
	"gsgcn/internal/wire"
)

// httpClient speaks the HTTP surface — JSON bodies by default, the
// negotiated binary encoding when wantWire is set. Stateless beyond
// the underlying http.Client, so it is trivially concurrency-safe.
type httpClient struct {
	base     string // URL prefix up to and including the model scope
	model    string
	hc       *http.Client
	wantWire bool
}

func newHTTPClient(cfg Config, wantWire bool) *httpClient {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: cfg.Timeout}
	}
	base := strings.TrimSuffix(cfg.Addr, "/") + "/v1"
	if cfg.Model != "" {
		base += "/models/" + cfg.Model
	}
	return &httpClient{base: base, model: cfg.Model, hc: hc, wantWire: wantWire}
}

// idsParam renders ids as the ?ids= query value.
func idsParam(ids []int) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// topkPath renders q as the /topk query string, omitting unset
// parameters so the server applies its own defaults.
func topkPath(q TopKQuery) string {
	path := "/topk?id=" + strconv.Itoa(q.ID)
	if q.K != 0 {
		path += "&k=" + strconv.Itoa(q.K)
	}
	if q.Mode != "" {
		path += "&mode=" + q.Mode
	}
	if q.Ef != 0 {
		path += "&ef=" + strconv.Itoa(q.Ef)
	}
	return path
}

// query issues one GET and returns its answer: the JSON body decoded
// into a new R or, on the wire transport, the frame converted by conv.
// Server rejections come back as *APIError on both encodings.
func query[R any](ctx context.Context, c *httpClient, path string, conv func(wire.Message) (*R, error)) (*R, error) {
	msg, raw, err := roundTrip(ctx, c.hc, http.MethodGet, c.base+path, c.wantWire)
	switch {
	case err != nil:
		return nil, err
	case msg != nil:
		return conv(msg)
	}
	var res R
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// roundTrip is the one HTTP exchange, shared by queries and the
// control plane: it sends a bodiless request (negotiating the wire
// encoding when wantWire is set) and returns a wire-frame answer
// decoded, any other 200 answer's raw body, and a refusal as
// *APIError, from its error frame or its JSON envelope.
func roundTrip(ctx context.Context, hc *http.Client, method, url string, wantWire bool) (wire.Message, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, nil, err
	}
	if wantWire {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.Header.Get("Content-Type") == wire.ContentType {
		msg, _, err := wire.Decode(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("client: bad wire frame from server: %w", err)
		}
		msg, err = refusal(msg)
		return msg, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
		}
		if json.Unmarshal(raw, &eb) != nil || eb.Error == "" {
			return nil, nil, fmt.Errorf("client: HTTP %d: %s", resp.StatusCode, raw)
		}
		return nil, nil, &APIError{Status: resp.StatusCode, Reason: eb.Reason, Message: eb.Error}
	}
	return nil, raw, nil
}

// refusal turns an error frame into the *APIError it carries and
// passes any other frame through: the one frame decoder of the
// negotiated-wire and TCP transports.
func refusal(msg wire.Message) (wire.Message, error) {
	if e, ok := msg.(*wire.ErrorResponse); ok {
		return nil, &APIError{Status: e.Status, Reason: e.Reason, Message: e.Message}
	}
	return msg, nil
}

func (c *httpClient) Embed(ctx context.Context, ids []int) (*serve.EmbedResult, error) {
	return query(ctx, c, "/embed?ids="+idsParam(ids), embedResult)
}

func (c *httpClient) Predict(ctx context.Context, ids []int) (*serve.PredictResult, error) {
	return query(ctx, c, "/predict?ids="+idsParam(ids), predictResult)
}

func (c *httpClient) TopK(ctx context.Context, q TopKQuery) (*serve.TopKResult, error) {
	return query(ctx, c, topkPath(q), topkResult)
}

func (c *httpClient) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// embedResult converts a decoded wire frame into the JSON-equivalent
// result struct. The point frames mirror their results field for
// field, so the conversions are type conversions — floats stay the
// same bits they crossed the wire as.
func embedResult(msg wire.Message) (*serve.EmbedResult, error) {
	m, ok := msg.(*wire.EmbedResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected frame %T for an embed query", msg)
	}
	return (*serve.EmbedResult)(m), nil
}

func predictResult(msg wire.Message) (*serve.PredictResult, error) {
	m, ok := msg.(*wire.PredictResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected frame %T for a predict query", msg)
	}
	return (*serve.PredictResult)(m), nil
}

func topkResult(msg wire.Message) (*serve.TopKResult, error) {
	m, ok := msg.(*wire.TopKResponse)
	if !ok {
		return nil, fmt.Errorf("client: unexpected frame %T for a topk query", msg)
	}
	mode, ok := wire.ModeString(m.Mode)
	if !ok {
		return nil, fmt.Errorf("client: bad mode byte 0x%02x in topk answer", m.Mode)
	}
	res := &serve.TopKResult{
		Version:      m.Version,
		ModelVersion: m.ModelVersion,
		ID:           m.ID,
		K:            m.K,
		Mode:         mode,
		Ef:           m.Ef,
		Degraded:     m.Degraded,
		Neighbors:    make([]serve.Neighbor, len(m.Neighbors)),
	}
	for i, n := range m.Neighbors {
		res.Neighbors[i] = serve.Neighbor(n)
	}
	return res, nil
}
