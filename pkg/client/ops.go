package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Health is the subset of the /healthz body the SDK's callers need —
// enough to size a workload and watch a reload land.
type Health struct {
	Status       string `json:"status"`
	Version      uint64 `json:"version"`
	ModelVersion uint64 `json:"model_version"`
	Vertices     int    `json:"vertices"`
	Dim          int    `json:"dim"`
	Classes      int    `json:"classes"`
}

// Ops drives a model's control plane — health, reload, shard
// lifecycle — over plain HTTP. The control plane is JSON-only by
// design, so Ops is transport-independent: pair it with any Client.
type Ops struct {
	base string
	hc   *http.Client
}

// NewOps builds a control-plane handle. addr is the server base URL,
// model the target model name ("" = the default model); hc nil uses
// http.DefaultClient.
func NewOps(addr, model string, hc *http.Client) *Ops {
	if hc == nil {
		hc = http.DefaultClient
	}
	base := strings.TrimSuffix(addr, "/") + "/v1"
	if model != "" {
		base += "/models/" + model
	}
	return &Ops{base: base, hc: hc}
}

// do issues one request and decodes a JSON answer into out (out nil
// drains the body for connection reuse). Non-200s surface as
// *APIError.
func (o *Ops) do(ctx context.Context, method, path string, out any) error {
	_, raw, err := roundTrip(ctx, o.hc, method, o.base+path, false)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Health fetches the model's /healthz status.
func (o *Ops) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := o.do(ctx, http.MethodGet, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Reload hot-swaps the model's serving snapshot from its current
// checkpoint path.
func (o *Ops) Reload(ctx context.Context) error {
	return o.do(ctx, http.MethodPost, "/reload", nil)
}

// StopShard takes shard i out of service (sharded models only).
func (o *Ops) StopShard(ctx context.Context, i int) error {
	return o.do(ctx, http.MethodPost, fmt.Sprintf("/shards/%d/stop", i), nil)
}

// StartShard returns shard i to service.
func (o *Ops) StartShard(ctx context.Context, i int) error {
	return o.do(ctx, http.MethodPost, fmt.Sprintf("/shards/%d/start", i), nil)
}
