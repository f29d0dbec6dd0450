// Package client is the Go SDK for the gsgcn serving plane. One
// Client interface answers embedding, prediction and top-K similarity
// queries over any of the three transports the server speaks:
//
//   - "json": plain HTTP with JSON bodies against the /v1 routes —
//     the reference encoding, lossless for float64.
//   - "wire": the same HTTP requests negotiated (via Accept) to the
//     deterministic binary encoding of internal/wire.
//   - "tcp": a persistent framed TCP connection (gsgcn-serve
//     -wire-addr) carrying pipelined wire frames; no HTTP at all.
//
// Answers are bit-identical across the three transports — every
// float64 crosses each of them as its exact IEEE-754 bits
// (test-enforced by TestTransportsBitIdentical) — so a caller can
// switch transports for latency without revalidating numerics.
// Server-side rejections surface as *APIError carrying the HTTP
// status, the machine-readable overload reason, and the exact error
// message the JSON envelope carries, again identical on every
// transport.
//
// cmd/gsgcn-loadgen is built on this package, so there is exactly one
// request-building implementation in the repo.
package client

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gsgcn/internal/serve"
)

// TopKQuery names a similar-vertices query. Zero values mean "server
// default": K=0 lets the server pick (10, clamped on tiny graphs),
// Mode="" uses the model's configured default, Ef=0 uses the default
// beam width (and must stay 0 unless Mode is "ann").
type TopKQuery struct {
	ID   int
	K    int
	Mode string // "", "exact" or "ann"
	Ef   int
}

// Client answers serving-plane queries for one model over one
// transport. Implementations are safe for concurrent use; Close
// releases the underlying connection(s).
type Client interface {
	Embed(ctx context.Context, ids []int) (*serve.EmbedResult, error)
	Predict(ctx context.Context, ids []int) (*serve.PredictResult, error)
	TopK(ctx context.Context, q TopKQuery) (*serve.TopKResult, error)
	Close() error
}

// APIError is a rejection the server itself produced (as opposed to
// a transport failure): Status is the HTTP status code, Reason the
// machine-readable overload class ("shed", "quota", "deadline",
// "canceled"; empty otherwise), Message the exact human-readable
// error string — identical across transports for the same request.
type APIError struct {
	Status  int
	Reason  string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server rejected request (HTTP %d): %s", e.Status, e.Message)
}

// Config selects a transport and target.
type Config struct {
	// Transport is "json" (default), "wire" or "tcp".
	Transport string
	// Addr is the server address: a base URL ("http://host:8080") for
	// the json and wire transports, a host:port for tcp.
	Addr string
	// Model routes requests to a named model; empty uses the server's
	// default model.
	Model string
	// HTTPClient overrides the http.Client used by the json and wire
	// transports (nil = a fresh client with Timeout).
	HTTPClient *http.Client
	// Timeout bounds each request when HTTPClient is nil (http) and
	// each round trip on the tcp transport. 0 = no client-side bound.
	Timeout time.Duration
}

// New builds a Client for cfg. The tcp transport dials eagerly so a
// bad address fails here, not on the first query.
func New(cfg Config) (Client, error) {
	switch cfg.Transport {
	case "", "json":
		return newHTTPClient(cfg, false), nil
	case "wire":
		return newHTTPClient(cfg, true), nil
	case "tcp":
		return dialTCP(cfg)
	}
	return nil, fmt.Errorf("client: unknown transport %q (want json, wire or tcp)", cfg.Transport)
}
