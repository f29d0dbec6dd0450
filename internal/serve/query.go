package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// This file is the query core: the error table every transport reads,
// and the three transport-neutral operations — embed and predict
// (point) and top-K — that HTTP-JSON, the negotiated binary encoding
// and the framed-TCP listener are codecs over. Each operation runs
// deadline → admit → parse/validate → group by owner → per-shard
// point or probe → stitch or merge, in that order, exactly once in the
// package.

// errMethod marks requests using an unsupported HTTP method.
var errMethod = errors.New("serve: method not allowed")

// errClosed is returned for queries that arrive after Close.
var errClosed = errors.New("serve: server closed")

// errNotOwned marks a query for a vertex a shard engine does not own.
// A Server never surfaces it — partition-aware routing sends every
// id to its owner — so seeing it means a shard engine was addressed
// directly with a foreign id.
var errNotOwned = errors.New("serve: vertex not owned by this shard")

// errShardDown marks a query whose owning shard is stopped, so clients
// can distinguish "this id is temporarily unanswerable" (503,
// retryable) from a caller mistake.
var errShardDown = errors.New("serve: owning shard is down")

// errorTable is the one mapping from error sentinels to what a client
// sees, in match order: the HTTP status (also the wire error frame's
// status) and the machine-readable reason of the structured error
// body. Server-side conditions (no model loaded yet, server closing, a
// down shard) are 503 so retry policies keyed on 4xx-vs-5xx treat them
// as retryable, shed requests are 429 (back off and retry), expired
// deadlines are 504, and an error matching no row is a caller mistake:
// 400. Reasons classify overload-protection rejections only; they are
// absent from every other body, so pre-existing error bodies stay
// byte-identical.
var errorTable = []struct {
	err    error
	status int
	reason string
}{
	{errShed, http.StatusTooManyRequests, "shed"},
	{errQuota, http.StatusTooManyRequests, "quota"},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
	// The client disconnected; the status is for the log line, not the
	// (gone) client. 503 keeps it in the retryable class.
	{context.Canceled, http.StatusServiceUnavailable, "canceled"},
	{errClosed, http.StatusServiceUnavailable, ""},
	{errShardDown, http.StatusServiceUnavailable, ""},
	{errNoModel, http.StatusServiceUnavailable, ""},
	{errNotOwned, http.StatusNotFound, ""},
	{errMethod, http.StatusMethodNotAllowed, ""},
}

// classify looks err up in errorTable.
func classify(err error) (status int, reason string) {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.status, row.reason
		}
	}
	return http.StatusBadRequest, ""
}

type errorBody struct {
	Error string `json:"error"`
	// Reason is the errorTable reason ("" omits the field).
	Reason string `json:"reason,omitempty"`
}

func writeErr(w http.ResponseWriter, err error) {
	status, reason := classify(err)
	writeJSON(w, status, errorBody{Error: err.Error(), Reason: reason})
}

// ownerOf resolves the shard that serves id, failing with a retryable
// 503 when that shard is down. On a fleet the id is range-checked
// here, with the exact text a whole-graph engine produces; a fleet of
// one leaves the check to its engine, which reports a missing model
// first — the order an unsharded server has always had.
func (s *Server) ownerOf(id int) (int, error) {
	o := 0
	if s.sharded() {
		if total := s.ds.G.NumVertices(); id < 0 || id >= total {
			return 0, fmt.Errorf("serve: vertex id %d out of range [0,%d)", id, total)
		}
		o = s.opts.shardMap().Assign(int32(id))
	}
	if s.shards[o].down.Load() {
		s.degraded.Inc()
		return 0, fmt.Errorf("%w: vertex id %d is owned by stopped shard %d", errShardDown, id, o)
	}
	return o, nil
}

// withDeadline is the deadline step of both operations, taken on
// arrival: ctx — which ends when the client goes away (the request
// context over HTTP, the connection's over the wire listener) —
// bounded by the per-model Deadline when one is set, so admission and
// parsing count against it.
func (s *Server) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.Deadline > 0 {
		return context.WithTimeout(ctx, s.opts.Deadline)
	}
	return ctx, func() {}
}

// ended reports ctx's error, once it has ended, as the failure of the
// step about to start. A deadline counts as ended once the clock has
// passed it, before the timer that cancels ctx has run: on a loaded
// host that timer can fire well after the query's deadline.
func ended(ctx context.Context, step string) error {
	err := ctx.Err()
	if d, ok := ctx.Deadline(); ok && err == nil && !time.Now().Before(d) {
		err = context.DeadlineExceeded
	}
	if err != nil {
		return fmt.Errorf("serve: %w %s", err, step)
	}
	return nil
}

// point answers one embed (predict false) or predict query — the one
// point-query path under every transport. decode yields the
// transport's already-parsed id list and runs only after admission,
// so an overloaded model sheds before it parses. ctx, bounded by the
// deadline from arrival on, reaches every sub-query: a shard's submit
// that finds it ended does not run, and the query fails with the
// context's error. The result is an *EmbedResult or a *PredictResult,
// byte-identical at every shard count: vertices and their rows are the
// same bits wherever they live, and the shards' version counters
// advance in lockstep.
func (s *Server) point(ctx context.Context, decode func() ([]int, error), predict bool) (any, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	release, err := s.gate.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	ids, err := decode()
	switch { // the id-list bounds every transport shares
	case err != nil:
		return nil, err
	case len(ids) == 0:
		return nil, fmt.Errorf("serve: no ids given")
	case len(ids) > maxQueryIDs:
		return nil, fmt.Errorf("serve: %d ids exceeds the per-request limit of %d", len(ids), maxQueryIDs)
	}
	if s.closed.Load() {
		return nil, errClosed
	}

	// Resolve every owner before any shard runs: partial answers to
	// point queries are never served.
	owners := make([]int, 0, 8)
	single := true
	for _, id := range ids {
		o, err := s.ownerOf(id)
		if err != nil {
			return nil, err
		}
		owners = append(owners, o)
		single = single && o == owners[0]
	}
	if single {
		// One shard owns every id — always so for a fleet of one: its
		// answer is the answer. No scatter goroutine, no stitch copy.
		resp := s.shards[owners[0]].point(ctx, ids, predict)
		if resp.err != nil {
			return nil, resp.err
		}
		s.annotate(ctx, 1, resp.batch)
		if predict {
			return resp.pred, nil
		}
		return resp.embed, nil
	}

	groups := make([][]int, len(s.shards))
	for i, o := range owners {
		groups[o] = append(groups[o], ids[i])
	}
	parts := make([]batchResp, len(s.shards))
	fanout := 0
	var wg sync.WaitGroup
	for o, sub := range groups {
		if len(sub) == 0 {
			continue
		}
		fanout++
		wg.Add(1)
		go func(o int, sub []int) {
			defer wg.Done()
			parts[o] = s.shards[o].point(ctx, sub, predict)
		}(o, sub)
	}
	wg.Wait()
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}
	s.annotate(ctx, fanout, 0)

	// Stitch the per-shard answers back in request order.
	pos := make([]int, len(s.shards))
	first := parts[owners[0]]
	if predict {
		res := &PredictResult{
			Version:      first.pred.Version,
			ModelVersion: first.pred.ModelVersion,
			Classes:      first.pred.Classes,
			MultiLabel:   first.pred.MultiLabel,
			IDs:          ids,
			Labels:       make([][]int, len(ids)),
			Probs:        make([][]float64, len(ids)),
		}
		for i, o := range owners {
			res.Labels[i] = parts[o].pred.Labels[pos[o]]
			res.Probs[i] = parts[o].pred.Probs[pos[o]]
			pos[o]++
		}
		return res, nil
	}
	res := &EmbedResult{
		Version:      first.embed.Version,
		ModelVersion: first.embed.ModelVersion,
		Dim:          first.embed.Dim,
		IDs:          ids,
		Vectors:      make([][]float64, len(ids)),
	}
	for i, o := range owners {
		res.Vectors[i] = parts[o].embed.Vectors[pos[o]]
		pos[o]++
	}
	return res, nil
}

// annotate records what the request log says about how a query was
// answered: the scatter fan-out on a sharded model, the batch id that
// carried the answer on an unsharded one.
func (s *Server) annotate(ctx context.Context, fanout int, batch uint64) {
	if a := annotOf(ctx); a != nil {
		if s.sharded() {
			a.fanout = fanout
		} else {
			a.batch = batch
		}
	}
}

// topkQuery is a top-K query: as parsed, ann is its mode resolved by
// queryMode and ef the requested beam (0 = default); as planTopK
// returns it, ann and ef are the scan plan.
type topkQuery struct {
	id, k int
	ann   bool
	ef    int
}

// queryMode resolves a request's mode through the engine's one mode
// switch; an unknown mode fails with the text every transport shares.
func (o Options) queryMode(mode string) (useANN bool, err error) {
	useANN, known := o.annMode(mode)
	if !known {
		return false, fmt.Errorf("serve: bad mode parameter %q (want exact or ann)", mode)
	}
	return useANN, nil
}

// resolveTopK applies the semantic top-K rules every transport shares
// once its surface form is parsed and its mode resolved: the unset-k
// default clamped to the graph and the ef-requires-ann rule. Keeping
// them in one resolver is what makes a wire request and its HTTP twin
// succeed or fail with identical error text.
func resolveTopK(q topkQuery, kSet bool, vertices int) (topkQuery, error) {
	if !kSet {
		// The client sent no k: clamp the server-side default to the
		// graph rather than rejecting it for exceeding |V|-1 (an
		// explicit out-of-range k is still an error).
		q.k = 10
		if q.k > vertices-1 {
			q.k = vertices - 1
		}
	}
	if q.ef != 0 && !q.ann {
		return topkQuery{}, fmt.Errorf("serve: ef applies only to mode=ann")
	}
	return q, nil
}

// topkKey keys the top-K memo: a snapshot version and a query as
// planTopK resolved it (ann and ef are the plan's, ef 0 when exact).
type topkKey struct {
	version uint64
	topkQuery
}

// topkMemoLimit is the number of answers a topkMemo holds; once full
// it admits nothing until a reload empties it.
const topkMemoLimit = 1024

// topkMemo memoizes top-K answers per (snapshot version, planned
// query). Keying by version means a reload can never serve a stale
// answer; dropStale only returns the memory. A Server holds the one
// instance.
type topkMemo struct {
	cacheMu sync.Mutex
	cache   map[topkKey]*TopKResult
}

func (m *topkMemo) lookup(key topkKey) *TopKResult {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	return m.cache[key]
}

// store memoizes res unless the memo is full.
func (m *topkMemo) store(key topkKey, res *TopKResult) {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	if len(m.cache) < topkMemoLimit {
		m.cache[key] = res
	}
}

// dropStale evicts results memoized from snapshots other than version.
func (m *topkMemo) dropStale(version uint64) {
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	for k := range m.cache {
		if k.version != version {
			delete(m.cache, k)
		}
	}
}

// topK answers one similar-nodes query — the one top-K path under
// every transport. decode yields the transport's request, parsed and
// passed through queryMode and resolveTopK, and runs only after
// admission. ctx, bounded by the deadline from arrival on, is checked
// before each shard probe starts and once more when the answer is
// ready, memo hit or not: a query that ended by either point fails
// with the context's error. The scatter-gather fetches the query
// vector from the owning shard, probes every live shard with shardTopK
// and merges under the ann.Before total order; the scan plan comes
// from planTopK against the global vertex count. Engine.TopKWith runs
// the same three steps on one engine, so exact answers are
// byte-identical to a whole-graph engine's at every shard count.
func (s *Server) topK(ctx context.Context, decode func() (topkQuery, error)) (any, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	release, err := s.gate.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	q, err := decode()
	if err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, errClosed
	}
	owner, err := s.ownerOf(q.id)
	if err != nil {
		return nil, err
	}
	st, vec, norm, err := s.shards[owner].eng.snapshotRow(q.id)
	if err != nil {
		return nil, err
	}
	total := s.ds.G.NumVertices()
	p, err := s.opts.planTopK(q, total, total)
	if err != nil {
		return nil, err
	}

	// Snapshot the down set once: the probes and the degraded flag
	// must agree on which shards were skipped.
	live := make([]int, 0, 8)
	for i := range s.shards {
		if !s.shards[i].down.Load() {
			live = append(live, i)
		}
	}
	degraded := len(live) < len(s.shards)
	key := topkKey{st.Version, p}
	var res *TopKResult
	if !degraded {
		res = s.lookup(key)
	}
	if res == nil {
		parts := make([][]Neighbor, len(live))
		errs := make([]error, len(live))
		probe := func(j int) {
			if errs[j] = ended(ctx, "before probe"); errs[j] != nil {
				return
			}
			// The owner scans the snapshot the query vector came from;
			// every other shard its current one.
			e, pin := s.shards[live[j]].eng, st
			if live[j] != owner {
				if pin, errs[j] = e.Snapshot(); errs[j] != nil {
					return
				}
			}
			parts[j] = e.shardTopK(pin, vec, norm, p)
		}
		if len(live) == 1 {
			probe(0) // in the caller's goroutine — always so for a fleet of one
		} else {
			var wg sync.WaitGroup
			for j := range live {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					probe(j)
				}(j)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res = topkResult(st, p, degraded, mergeTopK(parts, p.k))
		if !degraded {
			s.store(key, res)
		}
	}
	// An answer ready only after the deadline is not sent; the memo
	// still keeps it for the next caller.
	if err := ended(ctx, "before answer"); err != nil {
		return nil, err
	}
	if degraded {
		s.degraded.Inc()
	}
	s.annotate(ctx, len(live), 0)
	return res, nil
}
